// elect_chaos — seeded chaos runner over the real svc + net + cmd
// stacks.
//
// The run launches a real elect_server (fork/exec, journaling events
// and snapshotting its command log), puts the chaos::nemesis proxy in
// front of it, and drives N worker threads through the proxy doing
// acquire/renew/release/watch churn. A seed-derived plan of fault
// phases (drop, duplicate, delay, dribble, sever, group partitions,
// plus kill -9 + --restore restarts) runs against them; every worker
// op lands in a shared history, and chaos::check validates the merged
// histories plus the per-incarnation journals against the service's
// safety contract (unique leader per (key, epoch), monotonic epochs,
// real-time order, fenced zombies, ordered watch streams).
//
//   ./build/examples/elect_chaos --seed 7
//   ./build/examples/elect_chaos --seed 7 --smoke     # CI budget (~4s)
//   ./build/examples/elect_chaos --replay out/trace   # rerun a failure
//   ./build/examples/elect_chaos --plant-fence-bug    # expects a catch
//   ./build/examples/elect_chaos --cluster 3 --seed 7 # replicated mode
//
// --cluster N forks an N-member replicated cluster (elect_server
// --cluster, each member also dumping --snapshot to its own file every
// 20 ms, so the snapshot trim races replication and compaction under
// faults), one nemesis proxy in front of each member, and workers
// holding multi-endpoint clients that chase not_primary redirects.
// Every kill phase becomes kill-the-PRIMARY: SIGKILL the member
// currently holding the term mid-churn, let the survivors elect and
// fence, then respawn the victim as a follower (durable vote state, so
// a respawn cannot double-vote its old term). The checker rules R1-R5
// run unchanged over the merged client histories — the authoritative
// evidence; member journals are kept as artifacts but not fed to the
// checker, since R2's incarnation ordering is defined for one process,
// not a fleet of replicas journaling the same replayed grants.
//
// Every run writes artifacts to --dir (default chaos_out): the trace
// (replayable plan), histories.jsonl, per-incarnation journals and
// server logs, and report.txt. Exit 0 = checker green (or, under
// --plant-fence-bug, the planted bug was caught); 1 = safety violation
// (or a planted bug NOT caught); 2 = usage/setup error.
//
// --plant-fence-bug runs the server with --fence-bump 1: restored
// epochs are fenced by only +1, so epochs granted after the last
// snapshot and before the kill can be re-granted after the restore —
// a real double-grant the checker must convict (R1/R2/R3).

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chaos/checker.hpp"
#include "chaos/history.hpp"
#include "chaos/nemesis.hpp"
#include "chaos/schedule.hpp"
#include "common/rng.hpp"
#include "net/client.hpp"

namespace {

using namespace elect;

std::chrono::steady_clock::time_point run_epoch;

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - run_epoch)
          .count());
}

std::uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  std::uint16_t port = 0;
  socklen_t len = sizeof addr;
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return "";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The managed elect_server child process: spawn, kill -9, restart
/// with --restore, per-incarnation journal and log files.
class server_process {
 public:
  server_process(std::string binary, std::string dir, std::uint16_t port,
                 std::uint64_t fence_bump)
      : binary_(std::move(binary)),
        dir_(std::move(dir)),
        port_(port),
        fence_bump_(fence_bump) {}

  ~server_process() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      (void)::waitpid(pid_, nullptr, 0);
    }
  }

  [[nodiscard]] int incarnation() const { return incarnation_; }
  [[nodiscard]] std::string journal_path(int incarnation) const {
    return dir_ + "/journal." + std::to_string(incarnation) + ".jsonl";
  }
  [[nodiscard]] std::string snapshot_path() const {
    return dir_ + "/state.elsn";
  }

  /// Spawn (or respawn) the server. Restores from the snapshot when one
  /// exists — which, after the first kill -9, is exactly the crash-
  /// restart story the harness is here to test.
  bool spawn(std::uint64_t snapshot_interval_ms) {
    const bool restore = ::access(snapshot_path().c_str(), R_OK) == 0;
    std::vector<std::string> args = {
        binary_,
        "--port", std::to_string(port_),
        "--shards", "4",
        "--ttl-ms", "300",
        "--admin", "on",
        "--journal", journal_path(incarnation_),
        "--snapshot", snapshot_path(),
        "--snapshot-interval-ms", std::to_string(snapshot_interval_ms),
        "--fence-bump", std::to_string(fence_bump_),
    };
    if (restore) {
      args.push_back("--restore");
      args.push_back(snapshot_path());
    }
    const pid_t pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      const std::string log =
          dir_ + "/server." + std::to_string(incarnation_) + ".log";
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(binary_.c_str(), argv.data());
      std::_Exit(127);
    }
    pid_ = pid;
    return wait_ready();
  }

  /// kill -9 and reap; the next spawn() is a new incarnation restoring
  /// from whatever snapshot survived.
  void kill9() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    (void)::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    incarnation_++;
  }

  /// Let the journal flusher drain, then stop. Called once at run end;
  /// SIGTERM first so a graceful shutdown can flush, SIGKILL as the
  /// backstop.
  void stop() {
    if (pid_ <= 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 20; ++i) {
      if (::waitpid(pid_, nullptr, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ::kill(pid_, SIGKILL);
    (void)::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  bool wait_ready() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(8);
    while (std::chrono::steady_clock::now() < deadline) {
      net::client probe("127.0.0.1", port_);
      if (probe.connected()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return false;
  }

  std::string binary_;
  std::string dir_;
  std::uint16_t port_ = 0;
  std::uint64_t fence_bump_ = 1;
  pid_t pid_ = -1;
  int incarnation_ = 0;
};

/// An N-member replicated cluster of elect_server children. Members
/// keep fixed ports (the --cluster list all of them agree on) and
/// durable vote state, so a killed member respawns into the same seat
/// as a follower and catches up over the peer channel.
class cluster_fleet {
 public:
  cluster_fleet(std::string binary, std::string dir,
                std::vector<std::uint16_t> ports, std::uint64_t fence_bump)
      : binary_(std::move(binary)),
        dir_(std::move(dir)),
        ports_(std::move(ports)),
        fence_bump_(fence_bump),
        pids_(ports_.size(), -1),
        incarnations_(ports_.size(), 0) {
    for (std::size_t i = 0; i < ports_.size(); ++i) {
      if (!members_.empty()) members_ += ",";
      members_ += "127.0.0.1:" + std::to_string(ports_[i]);
    }
  }

  ~cluster_fleet() {
    for (std::size_t i = 0; i < pids_.size(); ++i) {
      if (pids_[i] > 0) {
        ::kill(pids_[i], SIGKILL);
        (void)::waitpid(pids_[i], nullptr, 0);
      }
    }
  }

  [[nodiscard]] int size() const { return static_cast<int>(ports_.size()); }
  [[nodiscard]] std::uint16_t port(int member) const {
    return ports_[static_cast<std::size_t>(member)];
  }
  [[nodiscard]] const std::string& members_csv() const { return members_; }
  [[nodiscard]] std::string journal_path(int member, int incarnation) const {
    return dir_ + "/journal.m" + std::to_string(member) + "." +
           std::to_string(incarnation) + ".jsonl";
  }
  [[nodiscard]] int incarnation(int member) const {
    return incarnations_[static_cast<std::size_t>(member)];
  }

  bool spawn(int member) {
    const auto idx = static_cast<std::size_t>(member);
    const std::string votes = dir_ + "/votes-m" + std::to_string(member);
    (void)::mkdir(votes.c_str(), 0755);
    std::vector<std::string> args = {
        binary_,
        "--cluster", members_,
        "--cluster-self", std::to_string(member),
        "--cluster-dir", votes,
        "--shards", "4",
        "--ttl-ms", "300",
        "--admin", "on",
        "--journal", journal_path(member, incarnations_[idx]),
        "--fence-bump", std::to_string(fence_bump_),
        "--snapshot", dir_ + "/snapshot.m" + std::to_string(member) + ".elsn",
        "--snapshot-interval-ms", "20",
    };
    const pid_t pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      const std::string log = dir_ + "/server.m" + std::to_string(member) +
                              "." + std::to_string(incarnations_[idx]) +
                              ".log";
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
        ::close(fd);
      }
      std::vector<char*> argv;
      argv.reserve(args.size() + 1);
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(binary_.c_str(), argv.data());
      std::_Exit(127);
    }
    pids_[idx] = pid;
    return wait_ready(member);
  }

  bool spawn_all() {
    for (int i = 0; i < size(); ++i) {
      if (!spawn(i)) return false;
    }
    return true;
  }

  void kill9(int member) {
    const auto idx = static_cast<std::size_t>(member);
    if (pids_[idx] <= 0) return;
    ::kill(pids_[idx], SIGKILL);
    (void)::waitpid(pids_[idx], nullptr, 0);
    pids_[idx] = -1;
    incarnations_[idx]++;
  }

  /// Ask each live member who it thinks it is; the one answering
  /// "role":"primary" for itself is the victim a kill phase wants.
  /// -1 while the cluster is mid-election (or unreachable).
  [[nodiscard]] int find_primary() const {
    for (int m = 0; m < size(); ++m) {
      if (pids_[static_cast<std::size_t>(m)] <= 0) continue;
      net::client probe("127.0.0.1", port(m));
      if (!probe.connected()) continue;
      const auto status = probe.admin(net::wire::op::admin_cluster_status);
      if (!status.has_value() ||
          status->result != net::wire::status::ok) {
        continue;
      }
      if (status->body.find("\"role\":\"primary\"") != std::string::npos) {
        return m;
      }
    }
    return -1;
  }

  /// Bounded wait for a primary to exist — a kill phase should aim at
  /// a real primary, not fire into an election.
  [[nodiscard]] int await_primary(std::uint64_t limit_ms) const {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(limit_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      const int p = find_primary();
      if (p >= 0) return p;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return -1;
  }

  void stop_all() {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    for (std::size_t i = 0; i < pids_.size(); ++i) {
      if (pids_[i] <= 0) continue;
      ::kill(pids_[i], SIGTERM);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    for (std::size_t i = 0; i < pids_.size(); ++i) {
      if (pids_[i] <= 0) continue;
      while (std::chrono::steady_clock::now() < deadline) {
        if (::waitpid(pids_[i], nullptr, WNOHANG) == pids_[i]) {
          pids_[i] = -1;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
      if (pids_[i] > 0) {
        ::kill(pids_[i], SIGKILL);
        (void)::waitpid(pids_[i], nullptr, 0);
        pids_[i] = -1;
      }
    }
  }

 private:
  bool wait_ready(int member) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(8);
    while (std::chrono::steady_clock::now() < deadline) {
      net::client probe("127.0.0.1", port(member));
      if (probe.connected()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
    return false;
  }

  std::string binary_;
  std::string dir_;
  std::vector<std::uint16_t> ports_;
  std::uint64_t fence_bump_ = 1;
  std::string members_;
  std::vector<pid_t> pids_;
  std::vector<int> incarnations_;
};

chaos::outcome map_acquire(const svc::acquire_result& r) {
  if (r.won) return chaos::outcome::ok;
  if (r.connection_lost) return chaos::outcome::connection_lost;
  if (r.timed_out) return chaos::outcome::timed_out;
  if (r.rejected) return chaos::outcome::rejected;
  return chaos::outcome::lost;
}

chaos::outcome map_lease(svc::lease_status s) {
  switch (s) {
    case svc::lease_status::ok: return chaos::outcome::ok;
    case svc::lease_status::stale_epoch: return chaos::outcome::stale_epoch;
    case svc::lease_status::not_leader: return chaos::outcome::not_leader;
    case svc::lease_status::connection_lost:
      return chaos::outcome::connection_lost;
  }
  return chaos::outcome::rejected;
}

struct worker_config {
  int id = 0;
  std::uint64_t seed = 1;
  std::uint16_t nemesis_port = 0;
  /// Cluster mode: "host:port,host:port,..." of every member's nemesis
  /// front. Non-empty wins over nemesis_port — the client chases
  /// not_primary redirects across the list.
  std::string endpoints;
  int keys = 4;
  std::uint64_t acquire_timeout_ms = 80;
};

/// One churn worker: reconnect through the nemesis as needed, watch one
/// key, and loop try_acquire_for -> renew* -> release, recording every
/// op. Connection loss (the nemesis severing a tainted or partitioned
/// pair) is recovered by building a fresh client.
void worker_main(const worker_config& config, chaos::collector* sink,
                 const std::atomic<bool>* stop) {
  rng_stream rng(config.seed, {0x776f726bULL /* "work" */,
                               static_cast<std::uint64_t>(config.id)});
  std::unique_ptr<net::client> client;
  const std::string watch_key =
      "key-" + std::to_string(config.id % config.keys);

  while (!stop->load(std::memory_order_relaxed)) {
    if (client == nullptr || !client->connected()) {
      client.reset();
      client = config.endpoints.empty()
                   ? std::make_unique<net::client>("127.0.0.1",
                                                   config.nemesis_port)
                   : std::make_unique<net::client>(config.endpoints);
      if (!client->connected()) {
        client.reset();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        continue;
      }
      // Re-anchor the watch on every new connection; events record
      // straight into the shared history.
      const int worker_id = config.id;
      (void)client->watch(watch_key, [sink, worker_id,
                                      watch_key](const svc::watch_event& e) {
        chaos::record r;
        r.start_us = r.end_us = now_us();
        r.worker = worker_id;
        r.op = chaos::op_kind::watch_event;
        r.result = chaos::outcome::ok;
        r.key = watch_key;
        r.epoch = e.epoch;
        r.transition = static_cast<std::uint8_t>(e.kind);
        r.session = e.session;
        sink->add(r);
      });
    }

    const std::string key =
        "key-" + std::to_string(rng.below(static_cast<std::uint64_t>(
                     config.keys)));
    chaos::record acq;
    acq.worker = config.id;
    acq.op = chaos::op_kind::acquire;
    acq.key = key;
    acq.start_us = now_us();
    const svc::acquire_result won = client->try_acquire_for(
        key, std::chrono::milliseconds(config.acquire_timeout_ms));
    acq.end_us = now_us();
    acq.result = map_acquire(won);
    acq.epoch = won.epoch;
    sink->add(acq);

    if (won.won) {
      const int renews = static_cast<int>(rng.between(0, 2));
      for (int i = 0; i < renews; ++i) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(rng.between(2, 10)));
        chaos::record ren;
        ren.worker = config.id;
        ren.op = chaos::op_kind::renew;
        ren.key = key;
        ren.epoch = won.epoch;
        ren.start_us = now_us();
        ren.result = map_lease(client->renew(key, won.epoch));
        ren.end_us = now_us();
        sink->add(ren);
        if (ren.result != chaos::outcome::ok) break;
      }
      chaos::record rel;
      rel.worker = config.id;
      rel.op = chaos::op_kind::release;
      rel.key = key;
      rel.epoch = won.epoch;
      rel.start_us = now_us();
      rel.result = map_lease(client->release(key, won.epoch));
      rel.end_us = now_us();
      sink->add(rel);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(rng.between(1, 4)));
  }
}

/// The replicated-cluster run: N members, one nemesis per member,
/// kill phases aimed at the current primary. Returns the process exit
/// code (0 green, 1 violation, 2 setup failure).
int run_cluster(const chaos::plan& plan, const std::string& dir,
                std::uint64_t seed, int cluster_size, int workers, int keys,
                bool smoke, const std::string& server_bin) {
  std::vector<std::uint16_t> ports;
  for (int i = 0; i < cluster_size; ++i) {
    const std::uint16_t p = free_port();
    if (p == 0) {
      std::fprintf(stderr, "cannot allocate member ports\n");
      return 2;
    }
    ports.push_back(p);
  }
  cluster_fleet fleet(server_bin, dir, ports, 1ull << 20);
  if (!fleet.spawn_all()) {
    std::fprintf(stderr, "cannot start the %d-member cluster\n", cluster_size);
    return 2;
  }

  // One nemesis in front of each member; peer traffic between members
  // stays direct (member ports), so replication survives client-side
  // fault policies and the kill phases are the cluster-level nemesis.
  std::vector<std::unique_ptr<chaos::nemesis>> nemeses;
  std::string endpoints;
  for (int m = 0; m < cluster_size; ++m) {
    chaos::nemesis_config nc;
    nc.upstream_port = fleet.port(m);
    nc.seed = seed ^ (0x6E656D00ull + static_cast<std::uint64_t>(m));
    auto nem = std::make_unique<chaos::nemesis>(nc);
    if (!nem->running()) {
      std::fprintf(stderr, "cannot start nemesis %d\n", m);
      return 2;
    }
    if (!endpoints.empty()) endpoints += ",";
    endpoints += "127.0.0.1:" + std::to_string(nem->port());
    nemeses.push_back(std::move(nem));
  }

  const int first_primary = fleet.await_primary(8000);
  if (first_primary < 0) {
    std::fprintf(stderr, "no primary emerged from the initial election\n");
    return 2;
  }
  std::printf(
      "chaos seed %llu: %d-member cluster (%s), primary m%d, %d workers, "
      "%d keys, %zu phases%s\n",
      static_cast<unsigned long long>(seed), cluster_size,
      fleet.members_csv().c_str(), first_primary, workers, keys,
      plan.phases.size(), smoke ? " [smoke]" : "");

  chaos::collector sink;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    worker_config wc;
    wc.id = i;
    wc.seed = seed;
    wc.endpoints = endpoints;
    wc.keys = keys;
    // Commit waits ride on every cluster grant; give acquires headroom.
    wc.acquire_timeout_ms = smoke ? 100 : 160;
    threads.emplace_back([wc, &sink, &stop] { worker_main(wc, &sink, &stop); });
  }

  bool setup_failed = false;
  for (const chaos::phase& ph : plan.phases) {
    std::printf("[%7.3fs] phase %-10s %ums%s\n",
                static_cast<double>(now_us()) / 1e6, ph.name.c_str(),
                ph.duration_ms,
                ph.kill_server ? " (kill the primary)" : "");
    if (ph.kill_server) {
      // Aim at a real primary (firing into an election kills a
      // follower, which proves nothing), drop it mid-churn, and
      // respawn it as a follower that must catch up and stay fenced.
      const int victim = fleet.await_primary(4000);
      if (victim >= 0) {
        fleet.kill9(victim);
        for (auto& nem : nemeses) nem->sever_all();
        if (!fleet.spawn(victim)) {
          std::fprintf(stderr, "member m%d respawn failed\n", victim);
          setup_failed = true;
          break;
        }
      }
    }
    for (auto& nem : nemeses) nem->set_policy(ph.policy);
    std::this_thread::sleep_for(std::chrono::milliseconds(ph.duration_ms));
  }

  for (auto& nem : nemeses) nem->set_policy({});
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_relaxed);
  for (auto& nem : nemeses) nem->sever_all();
  for (std::thread& t : threads) t.join();
  chaos::nemesis_stats faults;
  for (auto& nem : nemeses) {
    const chaos::nemesis_stats s = nem->stats();
    faults.pairs_accepted += s.pairs_accepted;
    faults.pairs_severed += s.pairs_severed;
    faults.taint_severs += s.taint_severs;
    faults.frames_forwarded += s.frames_forwarded;
    faults.frames_dropped += s.frames_dropped;
    faults.frames_duplicated += s.frames_duplicated;
    faults.frames_delayed += s.frames_delayed;
    faults.frames_dribbled += s.frames_dribbled;
    nem->stop();
  }
  fleet.stop_all();

  // Client histories are the evidence; member journals stay on disk as
  // artifacts (R2's incarnation ordering is a one-process notion).
  const std::vector<chaos::record> records = sink.take();
  const chaos::report report = chaos::check(records, {});

  (void)write_file(dir + "/histories.jsonl", chaos::to_jsonl(records));
  (void)write_file(dir + "/report.txt", report.to_string());

  std::printf(
      "nemesis (summed over %d proxies): %llu pairs (%llu severed, "
      "%llu taint-severs), %llu frames forwarded, %llu dropped, "
      "%llu duplicated, %llu delayed, %llu dribbled\n",
      cluster_size, static_cast<unsigned long long>(faults.pairs_accepted),
      static_cast<unsigned long long>(faults.pairs_severed),
      static_cast<unsigned long long>(faults.taint_severs),
      static_cast<unsigned long long>(faults.frames_forwarded),
      static_cast<unsigned long long>(faults.frames_dropped),
      static_cast<unsigned long long>(faults.frames_duplicated),
      static_cast<unsigned long long>(faults.frames_delayed),
      static_cast<unsigned long long>(faults.frames_dribbled));
  std::printf("%s", report.to_string().c_str());
  std::printf("artifacts in %s/ (trace, histories.jsonl, journals, logs)\n",
              dir.c_str());
  if (setup_failed) return 2;
  return report.ok() ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seed N] [--smoke] [--replay TRACE] [--plant-fence-bug]\n"
      "          [--dir PATH] [--workers N] [--keys N] [--phase-ms N]\n"
      "          [--server-bin PATH] [--cluster N]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  run_epoch = std::chrono::steady_clock::now();

  std::uint64_t seed = 1;
  bool smoke = false;
  bool plant_fence_bug = false;
  std::string replay_path;
  std::string dir = "chaos_out";
  int workers = 8;
  int keys = 4;
  std::uint32_t phase_ms = 0;  // 0 = default by mode
  std::string server_bin;
  int cluster_size = 0;  // 0 = single-node; >= 3 = replicated cluster

  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (std::strcmp(flag, "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(flag, "--plant-fence-bug") == 0) {
      plant_fence_bug = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      seed = static_cast<std::uint64_t>(std::strtoull(v, nullptr, 10));
    } else if (std::strcmp(flag, "--replay") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      replay_path = v;
    } else if (std::strcmp(flag, "--dir") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      dir = v;
    } else if (std::strcmp(flag, "--workers") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      workers = std::atoi(v);
    } else if (std::strcmp(flag, "--keys") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      keys = std::atoi(v);
    } else if (std::strcmp(flag, "--phase-ms") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      phase_ms = static_cast<std::uint32_t>(std::atoi(v));
    } else if (std::strcmp(flag, "--server-bin") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      server_bin = v;
    } else if (std::strcmp(flag, "--cluster") == 0) {
      const char* v = value();
      if (v == nullptr) return usage(argv[0]);
      cluster_size = std::atoi(v);
    } else {
      return usage(argv[0]);
    }
  }
  if (workers < 1 || keys < 1) return usage(argv[0]);
  if (cluster_size != 0 && (cluster_size < 3 || cluster_size > 5)) {
    std::fprintf(stderr, "--cluster takes 3..5 members\n");
    return 2;
  }
  if (cluster_size != 0 && plant_fence_bug) {
    // The planted bug is a restore-fence defect; cluster failover never
    // takes the --restore path, so the plant would be vacuously green.
    std::fprintf(stderr, "--plant-fence-bug is a single-node drill\n");
    return 2;
  }
  if (phase_ms == 0) phase_ms = smoke ? 400 : 800;
  if (server_bin.empty()) {
    // Default: elect_server next to this binary.
    std::string self = argv[0];
    const auto slash = self.rfind('/');
    server_bin = (slash == std::string::npos ? std::string(".")
                                             : self.substr(0, slash)) +
                 "/elect_server";
  }

  (void)::mkdir(dir.c_str(), 0755);

  // ---- plan: derive from seed, or replay a recorded trace ----------
  chaos::plan plan;
  if (!replay_path.empty()) {
    const auto parsed = chaos::parse_trace(read_file(replay_path));
    if (!parsed.has_value()) {
      std::fprintf(stderr, "cannot parse trace %s\n", replay_path.c_str());
      return 2;
    }
    plan = *parsed;
    seed = plan.seed;
    std::printf("replaying trace %s (seed %llu, %zu phases)\n",
                replay_path.c_str(), static_cast<unsigned long long>(seed),
                plan.phases.size());
  } else {
    plan = chaos::make_plan(seed, phase_ms, smoke);
  }
  if (!write_file(dir + "/trace", chaos::to_trace(plan))) {
    std::fprintf(stderr, "cannot write %s/trace\n", dir.c_str());
    return 2;
  }

  if (cluster_size != 0) {
    return run_cluster(plan, dir, seed, cluster_size, workers, keys, smoke,
                       server_bin);
  }

  const std::uint16_t server_port = free_port();
  if (server_port == 0) {
    std::fprintf(stderr, "cannot allocate a server port\n");
    return 2;
  }
  const std::uint64_t fence_bump = plant_fence_bug ? 1 : (1ull << 20);
  // A wider snapshot interval widens the crash gap the planted bug
  // needs; the sound default keeps dumps frequent, like production.
  const std::uint64_t snapshot_interval_ms = plant_fence_bug ? 600 : 150;

  server_process server(server_bin, dir, server_port, fence_bump);
  if (!server.spawn(snapshot_interval_ms)) {
    std::fprintf(stderr, "cannot start %s on port %u\n", server_bin.c_str(),
                 server_port);
    return 2;
  }

  chaos::nemesis_config nemesis_config;
  nemesis_config.upstream_port = server_port;
  nemesis_config.seed = seed;
  chaos::nemesis nemesis(nemesis_config);
  if (!nemesis.running()) {
    std::fprintf(stderr, "cannot start the nemesis proxy\n");
    return 2;
  }
  std::printf(
      "chaos seed %llu: server pid on :%u, nemesis on :%u, %d workers, "
      "%d keys, %zu phases%s%s\n",
      static_cast<unsigned long long>(seed), server_port, nemesis.port(),
      workers, keys, plan.phases.size(), smoke ? " [smoke]" : "",
      plant_fence_bug ? " [PLANTED FENCE BUG]" : "");

  // ---- workers ------------------------------------------------------
  chaos::collector sink;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    worker_config wc;
    wc.id = i;
    wc.seed = seed;
    wc.nemesis_port = nemesis.port();
    wc.keys = keys;
    wc.acquire_timeout_ms = smoke ? 50 : 80;
    threads.emplace_back([wc, &sink, &stop] { worker_main(wc, &sink, &stop); });
  }

  // ---- phase driver -------------------------------------------------
  bool setup_failed = false;
  for (const chaos::phase& ph : plan.phases) {
    std::printf("[%7.3fs] phase %-10s %ums%s\n",
                static_cast<double>(now_us()) / 1e6, ph.name.c_str(),
                ph.duration_ms, ph.kill_server ? " (kill -9 + restore)" : "");
    if (ph.kill_server) {
      server.kill9();
      // Cut every relayed connection: the dead upstream sockets are
      // gone anyway, and clients re-anchor against the restart.
      nemesis.sever_all();
      if (!server.spawn(snapshot_interval_ms)) {
        std::fprintf(stderr, "server restart failed\n");
        setup_failed = true;
        break;
      }
    }
    nemesis.set_policy(ph.policy);
    std::this_thread::sleep_for(std::chrono::milliseconds(ph.duration_ms));
  }

  // Quiesce: quiet policy so in-flight calls complete, then stop the
  // workers (a final sever frees anything still wedged).
  nemesis.set_policy({});
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true, std::memory_order_relaxed);
  nemesis.sever_all();
  for (std::thread& t : threads) t.join();
  const chaos::nemesis_stats faults = nemesis.stats();
  nemesis.stop();
  const int incarnations = server.incarnation() + 1;
  server.stop();

  // ---- evidence + checking -----------------------------------------
  const std::vector<chaos::record> records = sink.take();
  std::vector<chaos::incarnation_evidence> journals;
  journals.reserve(static_cast<std::size_t>(incarnations));
  for (int inc = 0; inc < incarnations; ++inc) {
    journals.push_back(
        chaos::parse_journal(read_file(server.journal_path(inc))));
  }
  const chaos::report report = chaos::check(records, journals);

  (void)write_file(dir + "/histories.jsonl", chaos::to_jsonl(records));
  (void)write_file(dir + "/report.txt", report.to_string());

  std::printf(
      "nemesis: %llu pairs (%llu severed, %llu taint-severs), "
      "%llu frames forwarded, %llu dropped, %llu duplicated, "
      "%llu delayed, %llu dribbled\n",
      static_cast<unsigned long long>(faults.pairs_accepted),
      static_cast<unsigned long long>(faults.pairs_severed),
      static_cast<unsigned long long>(faults.taint_severs),
      static_cast<unsigned long long>(faults.frames_forwarded),
      static_cast<unsigned long long>(faults.frames_dropped),
      static_cast<unsigned long long>(faults.frames_duplicated),
      static_cast<unsigned long long>(faults.frames_delayed),
      static_cast<unsigned long long>(faults.frames_dribbled));
  std::printf("%s", report.to_string().c_str());
  std::printf("artifacts in %s/ (trace, histories.jsonl, journals, logs)\n",
              dir.c_str());

  if (setup_failed) return 2;
  if (plant_fence_bug) {
    // Inverted verdict: the planted bug *must* be caught. A green
    // checker here means the harness lost its teeth.
    if (report.ok()) {
      std::printf("PLANTED BUG NOT CAUGHT — checker is blind\n");
      return 1;
    }
    std::printf("planted fencing bug caught, as required\n");
    return 0;
  }
  return report.ok() ? 0 : 1;
}
