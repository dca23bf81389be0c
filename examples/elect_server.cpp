// Standalone election server: the svc::service behind the elect::net
// TCP front-end, as a runnable binary. This is what "remote" examples
// and real clients talk to.
//
//   ./build/examples/elect_server --port 7400
//   ./build/examples/elect_server --port 7400 --nodes 8 --shards 8 \
//       --ttl-ms 5000 --strategy adaptive
//   ./build/examples/elect_server --port 7400 --http-port 7401 \
//       --admin on --slow-ms 50 --journal events.jsonl
//   ./build/examples/elect_server --port 7400 --reactors 4
//
// --reactors N runs N per-core network reactors (default: hardware
// concurrency; the ELECT_REACTORS env var overrides the default). The
// banner reports whether accept is SO_REUSEPORT-sharded across them or
// dealt round-robin from a single listener.
//
// --http-port starts the HTTP side-channel (GET /metrics Prometheus
// text, /report JSON, /healthz). --admin on enables the wire admin ops
// the elect_admin CLI uses. --slow-ms arms slow-request trace capture;
// --journal appends structured event records as JSONL.
//
// Durability:
//
//   ./build/examples/elect_server --port 7400 --snapshot state.elsn \
//       --snapshot-interval-ms 1000
//       record the command log and dump a binary snapshot of the
//       registry to state.elsn every interval (a temp file, fsynced
//       and renamed over it, then the directory fsynced);
//       `elect_admin snapshot` forces one on demand.
//
//   ./build/examples/elect_server --port 7400 --restore state.elsn
//       seed the registry from a snapshot before serving. Every
//       restored key's epoch is bumped, so leases granted before the
//       restart answer stale_epoch — pre-restart holders are fenced
//       out, not silently trusted.
//
// Cluster mode (replicated, epoch-fenced failover — see src/repl/):
//
//   ./build/examples/elect_server \
//       --cluster 127.0.0.1:7400,127.0.0.1:7410,127.0.0.1:7420 \
//       --cluster-self 0 --cluster-dir /tmp/elect-node0
//       one member of a replicated election cluster. The listen port
//       comes from the member's own endpoint in the --cluster list
//       (--port is ignored). Mutating client ops are only served by
//       the elected primary (others answer not_primary with the
//       primary's endpoint; api::client's comma-list constructor
//       follows the redirect). --cluster-dir persists the member's
//       vote state so a restart cannot double-vote a term.
//       --fence-bump is the promotion fence: every epoch jumps by it
//       on failover so a dead primary's unacked grants can never be
//       silently honored.
//
// Runs until SIGINT/SIGTERM (so `elect_server &` with stdin closed
// keeps serving). Prints the combined net + service metrics JSON on
// exit — and on every `r` + newline typed on stdin, so you can watch
// counters move while clients hammer it.
//
// The binary is also its own ops client (the elect::api facade over
// TCP):
//
//   ./build/examples/elect_server --report 127.0.0.1:7400
//       fetch and print a running server's metrics JSON, then exit.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "api/client.hpp"
#include "common/check.hpp"
#include "common/file.hpp"
#include "net/server.hpp"
#include "repl/node.hpp"
#include "svc/service.hpp"

namespace {

volatile std::sig_atomic_t interrupted = 0;

void on_signal(int) { interrupted = 1; }

/// Periodic snapshot dumper. Every dump moves the command log's history
/// past what the snapshot captures, so a long-running server holds a
/// bounded log, not an unbounded replay history; an entry the observer
/// feed has not read yet, or on a cluster member one past the
/// replication's compaction point, stays.
class snapshotter {
 public:
  snapshotter(elect::svc::service& service, std::string path,
              std::uint64_t interval_ms)
      : service_(service), path_(std::move(path)),
        interval_(std::chrono::milliseconds(interval_ms)) {
    thread_ = std::thread([this] { run(); });
  }

  ~snapshotter() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    cv_.notify_all();
    thread_.join();
    // One final dump so a clean shutdown leaves the freshest state.
    (void)elect::replace_file_durably(path_, service_.registry().snapshot(true));
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (cv_.wait_for(lock, interval_, [this] { return stopping_; })) {
        return;
      }
      lock.unlock();
      if (!elect::replace_file_durably(path_, service_.registry().snapshot(true))) {
        std::fprintf(stderr, "snapshot dump to %s failed\n", path_.c_str());
      }
      lock.lock();
    }
  }

  elect::svc::service& service_;
  const std::string path_;
  const std::chrono::milliseconds interval_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace elect;

  // Line-buffer stdout even when redirected to a file: scripts (and
  // CI) background the server and poll the log for the banner, which
  // otherwise sits in a full 4K stdio buffer until exit.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  svc::service_config service_config{.nodes = 8, .shards = 8};
  service_config.default_strategy = election::strategy_kind::adaptive;
  service_config.lease_ttl_ms = 5000;
  net::server_config server_config;
  server_config.port = 7400;
  std::string snapshot_path;
  std::uint64_t snapshot_interval_ms = 1000;
  std::string restore_path;
  // A snapshot is a *prefix* of history: epochs granted after the last
  // dump and before a kill -9 are invisible to --restore, so fencing
  // restored epochs by +1 could re-grant an epoch a pre-crash client
  // already won. 2^20 jumps restored keys clear past any plausible
  // crash gap; --fence-bump 1 reintroduces the collision (the chaos
  // harness's plantable fencing bug).
  std::uint64_t fence_bump = 1ull << 20;
  std::string cluster_members;
  int cluster_self = 0;
  std::string cluster_dir;
  std::uint64_t cluster_seed = 1;

  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--report") == 0) {
      // Client mode: one api::client round trip to a running server.
      api::client probe{std::string(value)};
      if (!probe.connected()) {
        std::fprintf(stderr, "connect to %s failed\n", value);
        return 1;
      }
      const std::string json = probe.metrics_json();
      if (json.empty()) {
        std::fprintf(stderr, "metrics fetch from %s failed\n", value);
        return 1;
      }
      std::printf("%s\n", json.c_str());
      return 0;
    }
    if (std::strcmp(flag, "--port") == 0) {
      server_config.port = static_cast<std::uint16_t>(std::atoi(value));
    } else if (std::strcmp(flag, "--bind") == 0) {
      server_config.bind_address = value;
    } else if (std::strcmp(flag, "--nodes") == 0) {
      service_config.nodes = std::atoi(value);
    } else if (std::strcmp(flag, "--shards") == 0) {
      service_config.shards = std::atoi(value);
    } else if (std::strcmp(flag, "--ttl-ms") == 0) {
      service_config.lease_ttl_ms =
          static_cast<std::uint64_t>(std::atoll(value));
    } else if (std::strcmp(flag, "--strategy") == 0) {
      const auto parsed = election::parse_strategy(value);
      ELECT_CHECK_MSG(parsed.has_value(), "unknown --strategy");
      service_config.default_strategy = *parsed;
    } else if (std::strcmp(flag, "--reactors") == 0) {
      server_config.reactors = std::atoi(value);
    } else if (std::strcmp(flag, "--http-port") == 0) {
      server_config.http_enabled = true;
      server_config.http_port = static_cast<std::uint16_t>(std::atoi(value));
    } else if (std::strcmp(flag, "--admin") == 0) {
      server_config.enable_admin = std::strcmp(value, "on") == 0;
    } else if (std::strcmp(flag, "--slow-ms") == 0) {
      service_config.slow_request_threshold_ms =
          static_cast<std::uint64_t>(std::atoll(value));
    } else if (std::strcmp(flag, "--journal") == 0) {
      service_config.journal_events = true;
      service_config.journal_path = value;
    } else if (std::strcmp(flag, "--snapshot") == 0) {
      snapshot_path = value;
    } else if (std::strcmp(flag, "--snapshot-interval-ms") == 0) {
      snapshot_interval_ms = static_cast<std::uint64_t>(std::atoll(value));
    } else if (std::strcmp(flag, "--restore") == 0) {
      restore_path = value;
    } else if (std::strcmp(flag, "--fence-bump") == 0) {
      fence_bump = static_cast<std::uint64_t>(std::atoll(value));
    } else if (std::strcmp(flag, "--cluster") == 0) {
      cluster_members = value;
    } else if (std::strcmp(flag, "--cluster-self") == 0) {
      cluster_self = std::atoi(value);
    } else if (std::strcmp(flag, "--cluster-dir") == 0) {
      cluster_dir = value;
    } else if (std::strcmp(flag, "--cluster-seed") == 0) {
      cluster_seed = static_cast<std::uint64_t>(std::atoll(value));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag);
      return 2;
    }
  }

  // Fail with a usable message on a bad flag combination instead of a
  // deep ELECT_CHECK abort somewhere inside the service.
  if (const auto error = service_config.validate()) {
    std::fprintf(stderr, "invalid configuration: %s\n", error->c_str());
    return 2;
  }
  if (!snapshot_path.empty()) {
    if (snapshot_interval_ms == 0) {
      std::fprintf(stderr, "--snapshot-interval-ms must be >= 1\n");
      return 2;
    }
    // Snapshots only make sense over a recorded command log; arm it
    // before the service sees any traffic, and let admin_snapshot
    // persist to the same file on demand.
    service_config.record_commands = true;
    server_config.snapshot_path = snapshot_path;
  }
  std::optional<repl::cluster_config> cluster;
  if (!cluster_members.empty()) {
    repl::cluster_config cc;
    const auto parsed = repl::parse_endpoints(cluster_members);
    if (!parsed.has_value()) {
      std::fprintf(stderr, "malformed --cluster list: %s\n",
                   cluster_members.c_str());
      return 2;
    }
    cc.members = *parsed;
    cc.self = cluster_self;
    cc.fence_bump = fence_bump;
    cc.state_dir = cluster_dir;
    cc.seed = cluster_seed;
    if (const auto error = cc.validate()) {
      std::fprintf(stderr, "invalid cluster configuration: %s\n",
                   error->c_str());
      return 2;
    }
    if (!cluster_dir.empty()) (void)::mkdir(cluster_dir.c_str(), 0755);
    // The member listens where its own --cluster entry says, whatever
    // --port said; its command history backs admin_commands and
    // --snapshot, as on a single server.
    service_config.record_commands = true;
    // Disjoint per-member session ids: a lease replicated from another
    // member's log must never match a live local session, so a
    // failed-over holder fences (stale/not_leader) instead of
    // accidentally renewing a stranger's lease.
    service_config.session_id_base = cc.self << 24;
    server_config.bind_address = cc.members[static_cast<std::size_t>(cc.self)].host;
    server_config.port = cc.members[static_cast<std::size_t>(cc.self)].port;
    cluster = std::move(cc);
  }
  svc::service service(std::move(service_config));
  if (!restore_path.empty()) {
    std::ifstream in(restore_path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read snapshot %s\n", restore_path.c_str());
      return 1;
    }
    const std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    // fence_restored: pre-restart leaseholders presenting restored
    // epochs must see stale_epoch, never a silently honored lease. The
    // bump also has to clear the crash gap — see fence_bump above.
    if (const auto error = service.registry().restore(
            bytes, /*fence_restored=*/true, fence_bump)) {
      std::fprintf(stderr, "restore from %s failed: %s\n",
                   restore_path.c_str(), error->c_str());
      return 1;
    }
    // Journal the fence now, not on the next op that touches its shard.
    service.publish_committed();
    std::printf("restored %s (all restored epochs fenced, bump %llu)\n",
                restore_path.c_str(),
                static_cast<unsigned long long>(fence_bump));
  }
  std::optional<repl::node> cluster_node;
  if (cluster.has_value()) {
    // The node starts before the server listens: the commit gate and
    // replica rule must be armed before any client op can land.
    // Outbound peer connects just retry until the other members'
    // servers come up.
    cluster_node.emplace(*cluster, service);
    cluster_node->start();
    repl::node* node = &*cluster_node;
    server_config.cluster.is_primary = [node] { return node->is_primary(); };
    server_config.cluster.primary_hint = [node] {
      return node->primary_endpoint();
    };
    server_config.cluster.peer = [node](const net::wire::request& r) {
      return node->handle_peer(r);
    };
    server_config.cluster.status_json = [node] { return node->status_json(); };
    server_config.cluster.prom_text = [node] { return node->prom_text(); };
  }
  net::server server(service, server_config);
  if (!server.listening()) {
    std::fprintf(stderr, "bind %s:%u failed\n",
                 server_config.bind_address.c_str(), server_config.port);
    return 1;
  }
  std::printf(
      "elect_server listening on %s:%u (strategy %s, ttl %llu ms, "
      "%d reactor%s, %s accept)\n",
      server_config.bind_address.c_str(), server.port(),
      std::string(election::to_string(service.config().default_strategy))
          .c_str(),
      static_cast<unsigned long long>(service.config().lease_ttl_ms),
      server.reactor_count(), server.reactor_count() == 1 ? "" : "s",
      server.reuseport_sharded() ? "SO_REUSEPORT-sharded" : "single-listener");
  if (server_config.http_enabled) {
    if (server.http_listening()) {
      std::printf("metrics at http://%s:%u/metrics (also /report, /healthz)\n",
                  server_config.bind_address.c_str(), server.http_port());
    } else {
      std::fprintf(stderr, "http bind %s:%u failed; continuing without\n",
                   server_config.bind_address.c_str(),
                   server_config.http_port);
    }
  }
  if (server_config.enable_admin) {
    std::printf(
        "admin ops enabled (elect_admin list/inspect/force-release/"
        "snapshot)\n");
  }
  if (cluster_node.has_value()) {
    std::printf(
        "cluster member %d of %d (%s), quorum %d, fence bump %llu%s%s\n",
        cluster_node->id(), static_cast<int>(cluster->members.size()),
        cluster->members[static_cast<std::size_t>(cluster->self)]
            .to_string()
            .c_str(),
        cluster->quorum(), static_cast<unsigned long long>(fence_bump),
        cluster_dir.empty() ? "" : ", vote state in ",
        cluster_dir.empty() ? "" : cluster_dir.c_str());
  }
  std::optional<snapshotter> snapshots;
  if (!snapshot_path.empty()) {
    snapshots.emplace(service, snapshot_path, snapshot_interval_ms);
    std::printf("snapshotting to %s every %llu ms\n", snapshot_path.c_str(),
                static_cast<unsigned long long>(snapshot_interval_ms));
  }
  std::printf("type 'r' + enter for a metrics report; Ctrl-C stops\n");

  // sigaction without SA_RESTART (std::signal on glibc restarts
  // syscalls): Ctrl-C must interrupt the fgets below, not wait for the
  // next line of input.
  struct sigaction action {};
  action.sa_handler = on_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  char line[16];
  while (!interrupted && std::fgets(line, sizeof line, stdin) != nullptr) {
    if (line[0] == 'r') std::printf("%s\n", server.report_json().c_str());
  }
  // stdin closed (typical when backgrounded): keep serving on signals.
  while (!interrupted) usleep(200 * 1000);

  std::printf("%s\n", server.report_json().c_str());
  server.stop();
  return 0;
}
