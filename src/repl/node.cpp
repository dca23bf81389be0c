#include "repl/node.hpp"


#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "common/file.hpp"

namespace elect::repl {

namespace {

// --- Vote persistence ---------------------------------------------------
//
// The one-shot-per-term vote must survive a restart, or a rebooted
// member could hand the same term to two candidates. Tiny text file,
// replaced durably (replace_file_durably: the temp file and the
// directory are both fsynced). Empty state_dir keeps the vote in
// memory.

std::string vote_path(const cluster_config& c) {
  return c.state_dir + "/repl_vote_" + std::to_string(c.self);
}

vote_record load_vote(const cluster_config& c) {
  vote_record v;
  if (c.state_dir.empty()) return v;
  const std::string path = vote_path(c);
  FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    ELECT_CHECK_MSG(errno == ENOENT, "cannot read the vote file " + path +
                                         ": " + std::strerror(errno));
    return v;  // never voted: a fresh member
  }
  unsigned long long term = 0;
  const bool parsed = std::fscanf(f, "v1 %llu %d", &term, &v.voted_for) == 2;
  std::fclose(f);
  ELECT_CHECK_MSG(parsed, "cannot parse the vote file " + path);
  v.term = term;
  return v;
}

vote_writer file_writer(const cluster_config& c) {
  if (c.state_dir.empty()) return [](const vote_record&) { return true; };
  return [path = vote_path(c)](const vote_record& v) {
    const std::string text = "v1 " + std::to_string(v.term) + " " +
                             std::to_string(v.voted_for) + "\n";
    return replace_file_durably(
        path, {reinterpret_cast<const std::uint8_t*>(text.data()),
               text.size()});
  };
}

/// Every counter, named once for both renderings.
std::vector<std::pair<const char*, std::uint64_t>> counter_fields(
    const node_counters& c) {
  return {{"elections_started", c.elections_started},
          {"terms_won", c.terms_won},
          {"step_downs", c.step_downs},
          {"appends_sent", c.appends_sent},
          {"append_failures", c.append_failures},
          {"heartbeats_sent", c.heartbeats_sent},
          {"entries_replicated", c.entries_replicated},
          {"snapshots_sent", c.snapshots_sent},
          {"snapshots_installed", c.snapshots_installed},
          {"compactions", c.compactions},
          {"commit_timeouts", c.commit_timeouts}};
}

/// "host:port" of member `m`; empty when `m` names no member.
std::string endpoint_of(const cluster_config& c, int m) {
  if (m < 0 || m >= static_cast<int>(c.members.size())) return {};
  return c.members[static_cast<std::size_t>(m)].to_string();
}

std::uint64_t lag(const core& c, const peer_progress& p) {
  const std::uint64_t last = c.log().last_index();
  return last > p.match_index ? last - p.match_index : 0;
}

}  // namespace

node::node(cluster_config config, svc::service& service)
    : service_(service),
      epoch_(std::chrono::steady_clock::now()),
      core_(config, service, load_vote(config), file_writer(config), 0) {}

node::~node() { stop(); }

std::uint64_t node::now_ms() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void node::signal(effects fx) {
  if (fx.send) work_cv_.notify_all();
  if (fx.commit) commit_cv_.notify_all();
}

void node::start() {
  service_.set_commit_gate(
      [this](const std::string& key) { return wait_committed(key); });
  for (const peer_progress& p : core_.peers()) {
    channels_.push_back(std::make_unique<peer_channel>(
        config().members[static_cast<std::size_t>(p.member)],
        config().peer_io_timeout_ms));
  }
  timer_ = std::thread([this] { timer_main(); });
  for (std::size_t k = 0; k < channels_.size(); ++k) {
    senders_.emplace_back([this, k] { sender_main(k); });
  }
}

void node::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  work_cv_.notify_all();
  commit_cv_.notify_all();
  if (timer_.joinable()) timer_.join();
  for (std::thread& t : senders_) t.join();
}

bool node::is_primary() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return core_.is_primary();
}

std::string node::primary_endpoint() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return endpoint_of(config(), core_.leader());
}

std::uint64_t node::current_term() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return core_.term();
}

std::uint64_t node::commit_index() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return core_.commit_index();
}

node_counters node::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return core_.counters();
}

net::wire::response node::handle_peer(const net::wire::request& r) {
  net::wire::response out;
  const std::lock_guard<std::mutex> lock(mu_);
  signal(core_.handle_peer(r, now_ms(), out));
  return out;
}

// --- Commit gate --------------------------------------------------------

bool node::wait_committed(const std::string& /*key*/) {
  const auto start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_ || !core_.is_primary()) return false;
  // The mutation is in the log already (the live path appends as it
  // executes): everything through the log's end must commit, in this
  // term — a member deposed and re-elected meanwhile may have lost it.
  const std::uint64_t target = core_.log().last_index();
  const std::uint64_t term = core_.term();
  signal(core_.replicate());
  const auto reached = [&] {
    return core_.is_primary() && core_.term() == term &&
           core_.commit_index() >= target;
  };
  const auto deadline =
      start + std::chrono::milliseconds(config().commit_wait_ms);
  (void)commit_cv_.wait_until(lock, deadline, [&] {
    return stop_ || !core_.is_primary() || core_.term() != term || reached();
  });
  const bool ok = !stop_ && reached();
  if (!ok) ++core_.counters().commit_timeouts;
  commit_latency_.add(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
  return ok;
}

// --- Threads ------------------------------------------------------------

void node::timer_main() {
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(core::tick_ms));
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (stop_) return;
      signal(core_.tick(now_ms()));
    }
    // Render what committed with no client waiting on it (expiries,
    // the promotion fence) — outside mu_: rendering takes the watch
    // hub's and the journal's locks.
    service_.publish_committed();
  }
}

void node::sender_main(std::size_t k) {
  peer_channel& channel = *channels_[k];
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    const std::uint64_t now = now_ms();
    std::optional<outbound> msg = core_.next_message(k, now);
    if (!msg.has_value()) {
      work_cv_.wait_for(
          lock, std::chrono::milliseconds(core_.next_wake(k, now) - now));
      continue;
    }
    lock.unlock();
    const auto reply = channel.call(msg->kind, std::move(msg->body));
    lock.lock();
    signal(core_.on_reply(k, *msg, reply, now_ms()));
  }
}

// --- Reporting ----------------------------------------------------------

std::string node::status_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  const cluster_config& c = config();
  const cmd::command_log& log = core_.log();
  std::ostringstream out;
  const auto field = [&](const char* key, const auto& value) {
    out << "\"" << key << "\":" << value << ",";
  };
  const auto text = [&](const char* key, const auto& value) {
    out << "\"" << key << "\":\"" << value << "\",";
  };
  out << "{";
  text("role", to_string(core_.current_role()));
  field("id", c.self);
  field("term", core_.term());
  field("leader_id", core_.leader());
  text("leader", endpoint_of(c, core_.leader()));
  text("self", endpoint_of(c, c.self));
  field("quorum", c.quorum());
  field("commit_index", core_.commit_index());
  field("applied_index", core_.applied_index());
  field("last_index", log.last_index());
  field("last_term", log.last_term());
  field("log_entries", log.size());
  field("snapshot_index", core_.base_index());
  field("needs_install", core_.needs_install() ? "true" : "false");
  out << "\"members\":[";
  for (std::size_t m = 0; m < c.members.size(); ++m) {
    out << (m > 0 ? "," : "") << "\"" << c.members[m].to_string() << "\"";
  }
  out << "],\"peers\":[";
  const char* sep = "";
  for (const peer_progress& p : core_.peers()) {
    out << sep << "{\"member\":" << p.member
        << ",\"match_index\":" << p.match_index
        << ",\"next_index\":" << p.next_index
        << ",\"lag\":" << lag(core_, p) << "}";
    sep = ",";
  }
  out << "],\"commit_latency\":{\"count\":" << commit_latency_.count()
      << ",\"p50_ms\":" << commit_latency_.quantile(0.50) / 1e6
      << ",\"p99_ms\":" << commit_latency_.quantile(0.99) / 1e6
      << "},\"counters\":{";
  sep = "";
  for (const auto& [name, value] : counter_fields(core_.counters())) {
    out << sep << "\"" << name << "\":" << value;
    sep = ",";
  }
  out << "}}";
  return out.str();
}

std::string node::prom_text() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  const auto gauge = [&](const char* name, std::uint64_t value) {
    out << "# TYPE elect_repl_" << name << " gauge\nelect_repl_" << name
        << " " << value << "\n";
  };
  gauge("is_primary", core_.is_primary() ? 1 : 0);
  gauge("term", core_.term());
  gauge("commit_index", core_.commit_index());
  gauge("last_index", core_.log().last_index());
  gauge("log_entries", core_.log().size());
  out << "# TYPE elect_repl_replication_lag gauge\n";
  for (const peer_progress& p : core_.peers()) {
    out << "elect_repl_replication_lag{peer=\"" << p.member << "\"} "
        << lag(core_, p) << "\n";
  }
  for (const auto& [name, value] : counter_fields(core_.counters())) {
    out << "# TYPE elect_repl_" << name << "_total counter\nelect_repl_"
        << name << "_total " << value << "\n";
  }
  out << "# TYPE elect_repl_commit_latency_seconds summary\n"
      << "elect_repl_commit_latency_seconds_count " << commit_latency_.count()
      << "\n"
      << "elect_repl_commit_latency_seconds_sum "
      << static_cast<double>(commit_latency_.sum_ns()) / 1e9 << "\n";
  return out.str();
}

}  // namespace elect::repl
