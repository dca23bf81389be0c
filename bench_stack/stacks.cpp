// Shared pieces of bench_stack: clock, statistics, seeded generators,
// record sinks, pinned configuration, and the in-process stacks.
#include <netinet/in.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench.hpp"

namespace bstack {

using namespace std::chrono_literals;

namespace {

const std::chrono::steady_clock::time_point process_origin =
    std::chrono::steady_clock::now();

/// A bound-but-closed loopback port for a server to take over.
std::uint16_t reserve_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return 0;
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - process_origin)
      .count();
}

void sleep_until_ns(std::int64_t t_ns) {
  const std::int64_t wait = t_ns - now_ns();
  if (wait <= 0) return;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(wait / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(wait % 1'000'000'000);
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

void fine_timer_slack() { (void)::prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double chunked_quantile(const std::vector<double>& v, double q,
                        std::size_t chunk) {
  if (v.size() < 2 * chunk) return quantile(v, q);
  std::vector<double> per_chunk;
  for (std::size_t at = 0; at + chunk <= v.size(); at += chunk) {
    per_chunk.push_back(quantile(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(at),
                            v.begin() + static_cast<std::ptrdiff_t>(at + chunk)),
        q));
  }
  return quantile(per_chunk, 0.5);
}

double median_rate(const std::vector<std::int64_t>& at_ns, std::int64_t from_ns,
                   std::int64_t duration_ns) {
  constexpr std::int64_t window_ns = 1'000'000'000;
  const std::int64_t windows = duration_ns / window_ns;
  if (windows == 0) {
    return static_cast<double>(at_ns.size()) / (static_cast<double>(duration_ns) / 1e9);
  }
  std::vector<double> counts(static_cast<std::size_t>(windows), 0.0);
  for (const std::int64_t t : at_ns) {
    const std::int64_t w = (t - from_ns) / window_ns;
    if (t >= from_ns && w < windows) counts[static_cast<std::size_t>(w)] += 1.0;
  }
  return quantile(counts, 0.5);
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {
std::int64_t cpu_clock_ns(clockid_t id) {
  timespec ts{};
  ::clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

std::int64_t process_cpu_ns() { return cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t thread_cpu_ns() { return cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID); }

std::string key_name(char prefix, std::uint32_t i) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%c%07u", prefix, i);
  return buf;
}

double uniform::exp1() { return -std::log1p(-(*this)()); }

zipf::zipf(std::uint32_t n, double theta) : n_(n), cdf_(n) {
  double sum = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

std::uint32_t zipf::rank(double u) const {
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::uint32_t>(
      std::min<std::ptrdiff_t>(it - cdf_.begin(), n_ - 1));
}

std::uint32_t zipf::key_of_rank(std::uint32_t rank) const {
  // n is a power of two, so an odd multiplier permutes [0, n).
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(rank) * 0x9E3779B1ull + 12345u) & (n_ - 1));
}

void input_hash::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 0x100000001b3ull;
  }
}

void input_hash::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

std::string input_hash::hex() const {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

void record_sink::add_all(std::vector<chaos::record> rs) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& r : rs) records_.push_back(std::move(r));
}

std::vector<chaos::record> record_sink::take() {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<chaos::record> out = std::move(records_);
  records_.clear();
  std::stable_sort(out.begin(), out.end(),
                   [](const chaos::record& a, const chaos::record& b) {
                     return a.start_us < b.start_us;
                   });
  return out;
}

std::vector<double> watch_lags_us(const std::vector<seen_event>& events,
                                  const cause_map& causes) {
  std::vector<double> out;
  out.reserve(events.size());
  cause_key probe;
  for (const seen_event& e : events) {
    probe.key = e.key;
    probe.epoch = e.epoch;
    probe.kind = static_cast<std::uint8_t>(e.kind);
    const auto it = causes.find(probe);
    if (it == causes.end()) continue;
    out.push_back(static_cast<double>(e.at_ns - it->second) / 1e3);
  }
  return out;
}

void hook_spans::add_commit(double us) {
  const std::lock_guard<std::mutex> lock(mutex);
  commit_wait_us.push_back(us);
}

void hook_spans::add_append(double us) {
  const std::lock_guard<std::mutex> lock(mutex);
  append_serve_us.push_back(us);
}

svc::service_config pinned_config::service() const {
  svc::service_config sc;
  sc.nodes = nodes;
  sc.shards = shards;
  sc.seed = program_seed;
  sc.lease_ttl_ms = lease_ttl_ms;
  sc.sweep_interval_ms = sweep_interval_ms;
  sc.default_strategy = strategy;
  return sc;
}

net::server_config pinned_config::server(std::uint16_t port) const {
  net::server_config nc;
  nc.bind_address = "127.0.0.1";
  nc.port = port;
  nc.executors = executors;
  nc.reactors = reactors;
  nc.reuseport = reuseport;
  nc.max_inflight_per_connection = max_inflight_per_connection;
  return nc;
}

std::string pinned_config::to_json() const {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\"program_seed\":%llu,\"strategy\":\"%s\",\"nodes\":%d,\"shards\":%d,\"reactors\":%d,"
      "\"executors\":%d,\"reuseport\":%s,\"max_inflight_per_connection\":%d,"
      "\"lease_ttl_ms\":%llu,\"sweep_interval_ms\":%llu,\"members\":%d,\"heartbeat_ms\":%llu,"
      "\"election_timeout_ms\":[%llu,%llu],\"commit_wait_ms\":%llu}",
      static_cast<unsigned long long>(program_seed),
      std::string(election::to_string(strategy)).c_str(), nodes, shards,
      reactors, executors, reuseport ? "true" : "false",
      max_inflight_per_connection,
      static_cast<unsigned long long>(lease_ttl_ms),
      static_cast<unsigned long long>(sweep_interval_ms), members,
      static_cast<unsigned long long>(heartbeat_ms),
      static_cast<unsigned long long>(election_timeout_min_ms),
      static_cast<unsigned long long>(election_timeout_max_ms),
      static_cast<unsigned long long>(commit_wait_ms));
  return buf;
}

// ---------------------------------------------------------------------

single_stack::single_stack(const pinned_config& cfg)
    : cfg_(cfg),
      port_(reserve_port()),
      service_(std::make_unique<svc::service>(cfg_.service())),
      server_(std::make_unique<net::server>(*service_, cfg_.server(port_))) {}

single_stack::~single_stack() {
  server_->stop();
  server_.reset();
  service_.reset();
}

// ---------------------------------------------------------------------

cluster_stack::cluster_stack(const pinned_config& cfg, hook_spans* spans)
    : cfg_(cfg), spans_(spans) {
  base_.heartbeat_ms = cfg.heartbeat_ms;
  base_.election_timeout_min_ms = cfg.election_timeout_min_ms;
  base_.election_timeout_max_ms = cfg.election_timeout_max_ms;
  base_.commit_wait_ms = cfg.commit_wait_ms;
  base_.seed = cfg.program_seed;
  const auto n = static_cast<std::size_t>(cfg.members);
  for (std::size_t i = 0; i < n; ++i) {
    base_.members.push_back({"127.0.0.1", reserve_port()});
  }
  live_.assign(n, false);
  services_.resize(n);
  nodes_.resize(n);
  servers_.resize(n);
  for (int i = 0; i < cfg.members; ++i) start_member(i);
}

cluster_stack::~cluster_stack() {
  for (auto& s : servers_) {
    if (s) s->stop();
  }
  for (auto& m : nodes_) {
    if (m) m->stop();
  }
  servers_.clear();
  nodes_.clear();
  services_.clear();
}

void cluster_stack::start_member(int i) {
  const auto idx = static_cast<std::size_t>(i);
  if (nodes_[idx]) retired_elections_ += nodes_[idx]->counters().elections_started;
  servers_[idx].reset();
  nodes_[idx].reset();
  services_[idx].reset();

  svc::service_config sc = cfg_.service();
  sc.record_commands = true;
  sc.session_id_base = i << 24;
  services_[idx] = std::make_unique<svc::service>(std::move(sc));

  repl::cluster_config cc = base_;
  cc.self = i;
  nodes_[idx] = std::make_unique<repl::node>(cc, *services_[idx]);
  nodes_[idx]->start();

  repl::node* node = nodes_[idx].get();
  net::server_config nc = cfg_.server(base_.members[idx].port);
  nc.cluster.is_primary = [node] { return node->is_primary(); };
  nc.cluster.primary_hint = [node] { return node->primary_endpoint(); };
  nc.cluster.status_json = [node] { return node->status_json(); };
  nc.cluster.prom_text = [node] { return node->prom_text(); };
  if (spans_ != nullptr) {
    // Traced runs wrap the two hooks the benchmark installs itself: the
    // commit gate the node put on the service, and the peer handler.
    hook_spans* spans = spans_;
    services_[idx]->set_commit_gate([node, spans](const std::string& key) {
      if (!spans->on.load(std::memory_order_relaxed)) {
        return node->wait_committed(key);
      }
      const std::int64_t t0 = now_ns();
      const bool ok = node->wait_committed(key);
      spans->add_commit(static_cast<double>(now_ns() - t0) / 1e3);
      return ok;
    });
    nc.cluster.peer = [node, spans](const net::wire::request& r) {
      if (r.kind != net::wire::op::peer_append ||
          !spans->on.load(std::memory_order_relaxed)) {
        return node->handle_peer(r);
      }
      const std::int64_t t0 = now_ns();
      net::wire::response out = node->handle_peer(r);
      spans->add_append(static_cast<double>(now_ns() - t0) / 1e3);
      return out;
    };
  } else {
    nc.cluster.peer = [node](const net::wire::request& r) {
      return node->handle_peer(r);
    };
  }
  servers_[idx] = std::make_unique<net::server>(*services_[idx], nc);
  live_[idx] = true;
}

void cluster_stack::stop_member(int i) {
  const auto idx = static_cast<std::size_t>(i);
  servers_[idx]->stop();
  nodes_[idx]->stop();
  live_[idx] = false;
}

bool cluster_stack::live(int i) const {
  return live_[static_cast<std::size_t>(i)];
}

int cluster_stack::primary() const {
  for (int i = 0; i < size(); ++i) {
    if (live(i) && nodes_[static_cast<std::size_t>(i)]->is_primary()) return i;
  }
  return -1;
}

int cluster_stack::wait_for_primary(std::chrono::milliseconds limit) const {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    const int p = primary();
    if (p >= 0) return p;
    std::this_thread::sleep_for(1ms);
  }
  return -1;
}

bool cluster_stack::wait_caught_up(std::chrono::milliseconds limit) const {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    const int p = primary();
    if (p >= 0) {
      const std::uint64_t target =
          nodes_[static_cast<std::size_t>(p)]->commit_index();
      bool all = true;
      for (int i = 0; i < size(); ++i) {
        if (live(i) &&
            nodes_[static_cast<std::size_t>(i)]->commit_index() < target) {
          all = false;
        }
      }
      if (all) return true;
    }
    std::this_thread::sleep_for(2ms);
  }
  return false;
}

std::string cluster_stack::endpoints_csv() const {
  std::string out;
  for (const auto& m : base_.members) {
    if (!out.empty()) out += ",";
    out += m.to_string();
  }
  return out;
}

std::uint64_t cluster_stack::elections_started() const {
  std::uint64_t total = retired_elections_;
  for (const auto& n : nodes_) {
    if (n) total += n->counters().elections_started;
  }
  return total;
}

}  // namespace bstack
