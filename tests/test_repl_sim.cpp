// elect::repl simulation: 3- and 5-member clusters of real
// svc::services, each driven by a repl::core, on one thread in virtual
// time under a seeded adversary.
//
// The harness models repl::node, the threaded runner: each (member, peer)
// pair has at most one call in flight, a call nobody answers fails after
// peer_io_timeout_ms of virtual time, and every member ticks every
// core::tick_ms. The adversary drops, delays and reorders messages (a
// request whose call timed out may still land later, as one from a
// severed connection can), partitions the members, hangs a member (it
// accepts calls and answers none until it resumes, then works through
// its backlog), crashes and restarts one (a fresh svc::service; the vote
// record survives), makes a member's vote store fail, and runs two
// reactive schedules: "vote store failure" crashes the member right
// after it answers a vote, and "inherited suffix" cuts a primary off
// while its clients keep writing, isolates the next member to win the
// moment it wins, and cuts the re-elected old primary off mid-way
// through a multi-batch catch-up. Clients run try_acquire / release /
// renew through svc::service sessions on whichever member believes it is
// primary, with no commit gate installed: the harness acks an op once
// that member's commit index covers the log index the op appended at,
// in the term it ran in, fails it if the member steps down first, and revokes an unconfirmed grant on a step
// down or after commit_wait_ms — the gate's contract, without a blocked
// thread. A worker that moves off a member that is no longer primary
// reclaims its session there, as the server's disconnect hook does when
// a redirected client closes its connection.
//
// The judge checks, as the run goes: at most one primary per term; an
// (index, term) any member reported committed never changes on any
// member, and no member's commit index falls; members whose registries
// applied the same log prefix hold byte-identical registry snapshots;
// chaos::check passes over the client history; and after the final calm
// stretch (10 election timeouts, every member up and connected) a
// primary exists and a client op committed.
//
// Crashes respect the design's durability model: only votes are
// durable, so a member may lose its log only while a quorum of the
// others holds everything committed; the adversary never crashes a
// member otherwise.
//
// Every choice comes from the seed, so a failing seed replays exactly:
//   ./build/tests/test_repl_sim --gtest_filter='*/17'
// reruns seed 17 (of both sweeps); the failure message carries the
// seed's trace hash, which covers every delivery (virtual time, from,
// to, op, term, indexes, outcome) but no command payload — those carry
// the registry's wall-clock at_ms.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "chaos/checker.hpp"
#include "chaos/history.hpp"
#include "net/wire.hpp"
#include "repl/config.hpp"
#include "repl/core.hpp"
#include "svc/service.hpp"

namespace elect {
namespace {

using net::wire::op;

/// The adversary's fault kinds (one schedule draws several).
enum class fault : int {
  flaky,
  partition,
  isolate_primary,
  hang,
  crash,
  vote_store_failure,
  inherited_suffix,
  count
};

constexpr const char* fault_names[] = {
    "flaky", "partition", "isolate_primary", "hang",
    "crash", "vote_store_failure", "inherited_suffix"};

/// Virtual-time cluster timing: production's ratios at a smaller scale.
repl::cluster_config sim_cluster(int n, std::uint64_t seed) {
  repl::cluster_config c;
  for (int i = 0; i < n; ++i) {
    c.members.push_back({"10.0.0." + std::to_string(i + 1), 7400});
  }
  c.heartbeat_ms = 20;
  c.election_timeout_min_ms = 50;
  c.election_timeout_max_ms = 100;
  c.peer_io_timeout_ms = 30;
  c.commit_wait_ms = 25;
  c.compact_threshold = 64;
  c.fence_bump = 1000;
  c.seed = seed;
  return c;
}

struct sim_options {
  int members = 3;
  std::uint64_t seed = 1;
  /// Virtual time spent drawing faults; a calm stretch follows.
  std::uint64_t fault_ms = 2000;
  int workers = 6;
  int keys = 8;
  /// Restrict the schedule to these kinds (empty: all of them).
  std::vector<fault> kinds{};
};

struct sim_result {
  std::vector<std::string> violations;
  std::uint64_t trace_hash = 0;
  std::uint64_t messages = 0;
  std::uint64_t committed_ops = 0;
  std::uint64_t max_term = 0;
  std::set<fault> faults;
};

class simulation {
 public:
  explicit simulation(sim_options o)
      : opt_(std::move(o)),
        config_(sim_cluster(opt_.members, opt_.seed)),
        rng_(opt_.seed * 0x9E3779B97F4A7C15ull + 17),
        members_(static_cast<std::size_t>(opt_.members)),
        workers_(static_cast<std::size_t>(opt_.workers)) {
    net_.cut.assign(members_.size(), std::vector<bool>(members_.size()));
    for (int m = 0; m < opt_.members; ++m) restart(m);
  }

  sim_result run();

 private:
  enum class ev : std::uint8_t {
    tick, deliver, reply, deadline, client, phase, check, resume, restart,
    rejoin
  };

  struct event {
    std::uint64_t at = 0;
    std::uint64_t seq = 0;
    ev kind = ev::tick;
    /// Member the event runs on (deliver: the receiver), or the worker.
    int at_member = -1;
    /// deliver/reply: the calling member; its peer slot for the callee.
    int caller = -1;
    std::size_t slot = 0;
    std::uint64_t call = 0;
    /// deliver: the receiver's incarnation when the request left.
    int incarnation = 0;
    net::wire::request request{};
    std::optional<net::wire::response> response{};
  };

  struct member {
    std::unique_ptr<svc::service> service;
    std::unique_ptr<repl::core> core;
    /// The durable vote store: survives restarts.
    repl::vote_record vote;
    bool store_fails = false;
    bool up = false;
    bool hung = false;
    int incarnation = 0;
    std::vector<std::uint64_t> call;        // per peer slot, 0 = idle
    std::vector<repl::outbound> in_flight;  // per peer slot
    std::vector<event> frozen;              // held while hung
    std::vector<std::optional<svc::service::session>> sessions;
    std::uint64_t seen_commit = 0;
    std::uint64_t checked = 0;  // committed indexes already judged
  };

  struct pending_op {
    int member = -1;
    int incarnation = 0;
    std::uint64_t term = 0;
    chaos::op_kind op = chaos::op_kind::acquire;
    std::string key{};
    std::uint64_t epoch = 0;
    /// The member's last log index right after the op ran.
    std::uint64_t index = 0;
    std::uint64_t start = 0;
    std::uint64_t deadline = 0;
  };

  struct worker {
    std::optional<pending_op> pending;
    /// Acked lease: key, epoch, and the member whose session holds it.
    std::optional<std::pair<std::string, std::uint64_t>> lease;
    int lease_member = -1;
    int lease_incarnation = 0;
    /// The member (and its incarnation) the worker last sent an op to.
    int member = -1;
    int member_incarnation = 0;
    std::uint64_t generation = 0;
  };

  struct network {
    double drop = 0;
    std::uint64_t delay_max = 2;
    double late = 0;
    std::vector<std::vector<bool>> cut;  // cut[a][b]: a -> b is lost
  };

  // --- plumbing ---
  void push(event e) {
    e.seq = ++seq_;
    queue_.push_back(std::move(e));
    std::push_heap(queue_.begin(), queue_.end(), later);
  }
  static bool later(const event& a, const event& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  }
  std::uint64_t draw(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng_);
  }
  /// A worker's pause between ops: clients of a primary that is being
  /// cut off for the inherited-suffix schedule keep writing flat out.
  std::uint64_t think() { return suffix_stage_ == 1 ? draw(0, 1) : draw(8, 24); }
  bool chance(double p) {
    return std::uniform_real_distribution<double>(0, 1)(rng_) < p;
  }
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ull;
    }
  }
  void mix(const std::string& s) {
    mix(s.size());
    for (const char c : s) {
      hash_ ^= static_cast<std::uint8_t>(c);
      hash_ *= 0x100000001B3ull;
    }
  }
  void fail(const std::string& what) {
    if (result_.violations.size() < 8) {
      result_.violations.push_back("t=" + std::to_string(now_) + "ms " + what);
    }
  }
  [[nodiscard]] int member_of(int m, std::size_t slot) const {
    return members_[static_cast<std::size_t>(m)].core->peers()[slot].member;
  }
  [[nodiscard]] static std::size_t slot_of(int from, int to) {
    return static_cast<std::size_t>(from < to ? from : from - 1);
  }
  member& at(int m) { return members_[static_cast<std::size_t>(m)]; }
  [[nodiscard]] bool serving(int m) {
    return at(m).up && !at(m).hung;
  }

  // --- members ---
  void restart(int m);
  void crash(int m);
  [[nodiscard]] bool may_lose_log(int victim);
  void pump(int m);
  void send(int m, std::size_t slot, repl::outbound msg);
  void after(int m);

  // --- events ---
  void on_event(event& e);
  void on_deliver(event& e);
  void on_reply(event& e);
  void on_client(int w);
  void on_phase();
  void heal();
  void isolate(int m);
  void connect(int a, int b);
  void check_replicas();

  // --- clients ---
  svc::service::session& session(int m, int w);
  [[nodiscard]] bool stranded(int m, const std::string& key) const;
  void resolve(int w);
  void finish(int w, chaos::outcome result);
  void record(int w, chaos::op_kind op, chaos::outcome result,
              const std::string& key, std::uint64_t epoch,
              std::uint64_t start);

  sim_options opt_;
  repl::cluster_config config_;
  std::mt19937_64 rng_;
  std::vector<member> members_;
  std::vector<worker> workers_;
  network net_;
  std::vector<event> queue_;
  std::uint64_t seq_ = 0;
  std::uint64_t now_ = 0;
  std::uint64_t next_call_ = 0;
  std::uint64_t hash_ = 0xCBF29CE484222325ull;
  sim_result result_;
  std::vector<chaos::record> history_;
  std::map<std::uint64_t, int> primary_of_term_;
  std::map<std::uint64_t, std::uint64_t> committed_;  // index -> term
  std::uint64_t acked_in_calm_ = 0;
  bool calm_ = false;

  // Reactive schedules.
  int crash_after_vote_ = -1;
  int suffix_stage_ = 0;
  int suffix_old_ = -1;
  int suffix_new_ = -1;
  std::uint64_t suffix_term_ = 0;
};

// --- Members --------------------------------------------------------------

void simulation::restart(int m) {
  member& s = at(m);
  s.core.reset();
  s.service.reset();
  svc::service_config sc;
  sc.nodes = 2;
  sc.shards = 2;
  sc.seed = opt_.seed + static_cast<std::uint64_t>(m);
  sc.session_id_base = m << 24;
  sc.default_strategy = election::strategy_kind::adaptive;
  s.service = std::make_unique<svc::service>(std::move(sc));
  repl::cluster_config cc = config_;
  cc.self = m;
  s.core = std::make_unique<repl::core>(
      cc, *s.service, s.vote,
      [this, m](const repl::vote_record& v) {
        if (at(m).store_fails) return false;
        at(m).vote = v;
        return true;
      },
      now_);
  s.up = true;
  ++s.incarnation;
  s.call.assign(members_.size() - 1, 0);
  s.in_flight.assign(members_.size() - 1, {});
  s.sessions.assign(workers_.size(), std::nullopt);
  s.seen_commit = 0;
  s.checked = 0;
  mix(0xA11CE);
  mix(static_cast<std::uint64_t>(m));
}

void simulation::crash(int m) {
  member& s = at(m);
  s.up = false;
  s.hung = false;
  s.frozen.clear();
  s.store_fails = false;
  s.core.reset();
  s.service.reset();
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (workers_[w].pending && workers_[w].pending->member == m) {
      finish(static_cast<int>(w), chaos::outcome::connection_lost);
    }
  }
  mix(0xDEAD);
  mix(static_cast<std::uint64_t>(m));
  push({.at = now_ + draw(1, 20), .kind = ev::restart, .at_member = m});
}

/// The durability model: a member may lose its log only while a quorum
/// of the others holds every entry it holds — an entry a primary counted
/// it for (an ack may still be in flight) must survive the crash.
bool simulation::may_lose_log(int victim) {
  const cmd::command_log& own = at(victim).core->log();
  const std::uint64_t index = own.last_index();
  const std::uint64_t term = own.last_term();
  if (index == 0) return true;
  int holders = 0;
  for (int m = 0; m < opt_.members; ++m) {
    if (m == victim || !at(m).up) continue;
    const cmd::command_log& log = at(m).core->log();
    if (index <= log.last_index() && index + 1 >= log.first_index() &&
        log.term_at(index) == term) {
      ++holders;
    }
  }
  return holders >= config_.quorum();
}

void simulation::send(int m, std::size_t slot, repl::outbound msg) {
  member& s = at(m);
  const int to = member_of(m, slot);
  const std::uint64_t id = ++next_call_;
  ++result_.messages;
  s.call[slot] = id;
  event fail_at{.at = now_ + config_.peer_io_timeout_ms,
                .kind = ev::deadline,
                .at_member = m,
                .slot = slot,
                .call = id};
  if (!at(to).up) fail_at.at = now_ + 1;  // connection refused
  push(fail_at);
  mix(now_);
  mix(static_cast<std::uint64_t>(m) << 8 | static_cast<std::uint64_t>(to));
  mix(static_cast<std::uint64_t>(msg.kind));
  mix(msg.term);
  mix(msg.index);
  mix(msg.count);
  if (at(to).up && !net_.cut[static_cast<std::size_t>(m)]
                            [static_cast<std::size_t>(to)] &&
      !chance(net_.drop)) {
    std::uint64_t delay = draw(0, net_.delay_max);
    if (chance(net_.late)) delay = config_.peer_io_timeout_ms + draw(1, 40);
    event d{.at = now_ + delay,
            .kind = ev::deliver,
            .at_member = to,
            .caller = m,
            .slot = slot,
            .call = id,
            .incarnation = at(to).incarnation};
    d.request.id = id;
    d.request.kind = msg.kind;
    d.request.body = msg.body;
    push(std::move(d));
  } else {
    mix(0xD809);
  }
  s.in_flight[slot] = std::move(msg);
  s.in_flight[slot].body.clear();
}

void simulation::pump(int m) {
  if (!serving(m)) return;
  member& s = at(m);
  for (std::size_t k = 0; k < s.call.size(); ++k) {
    if (s.call[k] != 0) continue;
    auto msg = s.core->next_message(k, now_);
    if (msg.has_value()) send(m, k, std::move(*msg));
  }
}

/// After any event on member `m`: judge what it now reports, settle its
/// clients' ops, fire the reactive schedules, and send what is due.
void simulation::after(int m) {
  if (!serving(m)) return;
  member& s = at(m);
  repl::core& c = *s.core;
  result_.max_term = std::max(result_.max_term, c.term());
  if (c.is_primary()) {
    const auto [it, fresh] = primary_of_term_.emplace(c.term(), m);
    if (!fresh && it->second != m) {
      fail("two primaries in term " + std::to_string(c.term()) +
           ": members " + std::to_string(it->second) + " and " +
           std::to_string(m));
    }
    if (suffix_stage_ == 1 && m != suffix_old_ && c.term() > suffix_term_) {
      // Inherited suffix, step 2: the first member to win while the old
      // primary is cut off is isolated the moment it wins.
      suffix_new_ = m;
      isolate(m);
      suffix_stage_ = 2;
    }
  }
  if (c.commit_index() < s.seen_commit) {
    fail("member " + std::to_string(m) + " commit index fell from " +
         std::to_string(s.seen_commit) + " to " +
         std::to_string(c.commit_index()));
  }
  // A reinstalled member's commit point can run ahead of its log until
  // the entries in between arrive again; check what the log holds.
  const std::uint64_t reach = std::min(c.commit_index(), c.log().last_index());
  for (std::uint64_t i = s.checked + 1; i <= reach; ++i) {
    if (i + 1 < c.log().first_index()) continue;
    const std::uint64_t term = c.log().term_at(i);
    const auto [it, fresh] = committed_.emplace(i, term);
    if (!fresh && it->second != term) {
      fail("member " + std::to_string(m) + " committed index " +
           std::to_string(i) + " at term " + std::to_string(term) +
           ", committed elsewhere at term " + std::to_string(it->second));
    }
  }
  s.seen_commit = c.commit_index();
  s.checked = std::max(s.checked, reach);
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (workers_[w].pending && workers_[w].pending->member == m) {
      resolve(static_cast<int>(w));
    }
  }
  pump(m);
}

// --- Events ---------------------------------------------------------------

void simulation::on_event(event& e) {
  const bool io = e.kind == ev::deliver || e.kind == ev::reply ||
                  e.kind == ev::deadline;
  if (io && at(e.at_member).hung) {
    // A stopped process: everything aimed at it waits for SIGCONT.
    at(e.at_member).frozen.push_back(std::move(e));
    return;
  }
  switch (e.kind) {
    case ev::tick:
      if (serving(e.at_member)) {
        (void)at(e.at_member).core->tick(now_);
        after(e.at_member);
      }
      push({.at = now_ + repl::core::tick_ms, .kind = ev::tick,
            .at_member = e.at_member});
      break;
    case ev::deliver: on_deliver(e); break;
    case ev::reply:
    case ev::deadline: on_reply(e); break;
    case ev::client:
      if (e.call == workers_[static_cast<std::size_t>(e.at_member)].generation) {
        on_client(e.at_member);
      }
      break;
    case ev::phase: on_phase(); break;
    case ev::check:
      check_replicas();
      push({.at = now_ + 100, .kind = ev::check});
      break;
    case ev::resume: {
      member& s = at(e.at_member);
      if (!s.hung) break;
      s.hung = false;
      mix(0x5106);
      std::vector<event> backlog = std::move(s.frozen);
      s.frozen.clear();
      for (event& f : backlog) {
        f.at = now_;
        push(std::move(f));
      }
      after(e.at_member);
      break;
    }
    case ev::restart:
      restart(e.at_member);
      after(e.at_member);
      break;
    case ev::rejoin:
      // Inherited suffix, step 3: the old primary comes back to every
      // member but the isolated winner; whichever primary is then caught
      // mid-way through a multi-batch catch-up gets cut off.
      if (suffix_stage_ == 0) break;
      for (int o = 0; o < opt_.members; ++o) {
        if (o != suffix_old_ && o != suffix_new_) connect(suffix_old_, o);
      }
      suffix_stage_ = 3;
      break;
  }
}

void simulation::on_deliver(event& e) {
  const int to = e.at_member;
  const int from = e.caller;
  // A crash reset the connection this request travelled on.
  if (!at(to).up || at(to).incarnation != e.incarnation) return;
  net::wire::response out;
  (void)at(to).core->handle_peer(e.request, now_, out);
  mix(now_);
  mix(static_cast<std::uint64_t>(to) << 8 | static_cast<std::uint64_t>(from));
  mix(static_cast<std::uint64_t>(out.result));
  mix(out.body);
  after(to);
  if (e.request.kind == op::peer_vote && crash_after_vote_ == to &&
      may_lose_log(to)) {
    // Vote store failure, step 2: the member dies right after it
    // answered a vote (the answer still goes out).
    crash_after_vote_ = -1;
    crash(to);
  }
  if (net_.cut[static_cast<std::size_t>(to)][static_cast<std::size_t>(from)] ||
      chance(net_.drop)) {
    mix(0xD809);
    return;
  }
  event r{.at = now_ + draw(0, net_.delay_max),
          .kind = ev::reply,
          .at_member = from,
          .caller = to,
          .slot = e.slot,
          .call = e.call};
  r.response = std::move(out);
  push(std::move(r));
}

void simulation::on_reply(event& e) {
  const int m = e.at_member;
  member& s = at(m);
  // Call ids are never reused, and a restart forgets its calls: a
  // mismatch is a later incarnation, or a call that already settled.
  if (!s.up || s.call[e.slot] != e.call) return;
  s.call[e.slot] = 0;
  const repl::outbound& sent = s.in_flight[e.slot];
  mix(now_);
  mix(e.call);
  mix(e.response.has_value() ? 1 : 0);
  const repl::peer_progress before = s.core->peers()[e.slot];
  (void)s.core->on_reply(e.slot, sent, e.response, now_);
  const repl::peer_progress& p = s.core->peers()[e.slot];
  if (suffix_stage_ == 3 && s.core->is_primary() && sent.count > 0 &&
      p.match_index > before.match_index &&
      p.next_index <= s.core->log().last_index()) {
    // Inherited suffix, step 3: a primary still mid-way through a
    // multi-batch catch-up is cut off; the isolated winner returns.
    isolate(m);
    for (int o = 0; o < opt_.members && suffix_new_ >= 0; ++o) {
      if (o != m && o != suffix_new_) connect(suffix_new_, o);
    }
    suffix_stage_ = 4;
  }
  after(m);
}

void simulation::heal() {
  for (auto& row : net_.cut) std::fill(row.begin(), row.end(), false);
  net_.drop = 0;
  net_.late = 0;
  net_.delay_max = 2;
  crash_after_vote_ = -1;
  suffix_stage_ = 0;
  for (int m = 0; m < opt_.members; ++m) {
    at(m).store_fails = false;
    if (at(m).hung) push({.at = now_, .kind = ev::resume, .at_member = m});
  }
}

void simulation::connect(int a, int b) {
  net_.cut[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] = false;
  net_.cut[static_cast<std::size_t>(b)][static_cast<std::size_t>(a)] = false;
}

void simulation::isolate(int m) {
  for (int o = 0; o < opt_.members; ++o) {
    if (o == m) continue;
    net_.cut[static_cast<std::size_t>(m)][static_cast<std::size_t>(o)] = true;
    net_.cut[static_cast<std::size_t>(o)][static_cast<std::size_t>(m)] = true;
  }
}

void simulation::on_phase() {
  heal();
  if (now_ >= opt_.fault_ms) {
    if (!calm_) {
      // The final calm stretch: 10 election timeouts, all healthy.
      calm_ = true;
      push({.at = now_ + 10 * config_.election_timeout_max_ms,
            .kind = ev::phase});
    }
    return;
  }
  std::vector<fault> kinds = opt_.kinds;
  if (kinds.empty()) {
    for (int k = 0; k < static_cast<int>(fault::count); ++k) {
      kinds.push_back(static_cast<fault>(k));
    }
  }
  const fault f = kinds[draw(0, kinds.size() - 1)];
  int primary = -1;
  for (int m = 0; m < opt_.members; ++m) {
    if (serving(m) && at(m).core->is_primary()) primary = m;
  }
  const int victim = primary >= 0 && chance(0.5)
                         ? primary
                         : static_cast<int>(draw(0, opt_.members - 1));
  std::uint64_t length = draw(100, 400);
  bool drawn = true;
  switch (f) {
    case fault::flaky:
      net_.drop = 0.05 * static_cast<double>(draw(1, 6));
      net_.delay_max = draw(2, 25);
      net_.late = 0.02 * static_cast<double>(draw(0, 5));
      break;
    case fault::partition: {
      std::vector<int> side(members_.size());
      for (int& g : side) g = static_cast<int>(draw(0, 1));
      for (std::size_t a = 0; a < side.size(); ++a) {
        for (std::size_t b = 0; b < side.size(); ++b) {
          net_.cut[a][b] = side[a] != side[b];
        }
      }
      break;
    }
    case fault::isolate_primary:
      if (primary < 0) drawn = false;
      else isolate(primary);
      break;
    case fault::hang:
      if (!serving(victim)) {
        drawn = false;
        break;
      }
      at(victim).hung = true;
      mix(0x4A96);
      break;
    case fault::crash:
      if (!at(victim).up || !may_lose_log(victim)) {
        drawn = false;
        break;
      }
      crash(victim);
      break;
    case fault::vote_store_failure: {
      // The victim bridges members that cannot see each other, so every
      // election runs through its vote; its store fails, and it dies
      // right after answering a vote.
      if (!serving(victim) || !may_lose_log(victim)) {
        drawn = false;
        break;
      }
      for (int a = 0; a < opt_.members; ++a) {
        for (int b = 0; b < opt_.members; ++b) {
          net_.cut[static_cast<std::size_t>(a)][static_cast<std::size_t>(b)] =
              a != b && a != victim && b != victim;
        }
      }
      at(victim).store_fails = true;
      crash_after_vote_ = victim;
      length = draw(200, 500);
      break;
    }
    case fault::inherited_suffix:
      if (primary < 0) {
        drawn = false;
        break;
      }
      // Step 1: the primary is cut off while its clients keep writing,
      // growing an uncommitted suffix longer than one append batch.
      isolate(primary);
      suffix_old_ = primary;
      suffix_term_ = at(primary).core->term();
      suffix_stage_ = 1;
      length = draw(700, 1000);
      push({.at = now_ + length, .kind = ev::rejoin});
      length += draw(300, 600);
      break;
    case fault::count: break;
  }
  if (drawn) result_.faults.insert(f);
  mix(0xFA17);
  mix(static_cast<std::uint64_t>(f));
  push({.at = now_ + length, .kind = ev::phase});
}

void simulation::check_replicas() {
  // Committed entries still in a log must match what was reported.
  for (int m = 0; m < opt_.members; ++m) {
    if (!at(m).up) continue;
    const repl::core& c = *at(m).core;
    const std::uint64_t through =
        std::min(c.commit_index(), c.log().last_index());
    for (std::uint64_t i = c.log().first_index(); i <= through; ++i) {
      const auto it = committed_.find(i);
      if (it != committed_.end() && it->second != c.log().term_at(i)) {
        fail("member " + std::to_string(m) + " holds committed index " +
             std::to_string(i) + " at term " +
             std::to_string(c.log().term_at(i)) + ", committed at term " +
             std::to_string(it->second));
      }
    }
  }
  // Registries that applied the same prefix must be byte-identical.
  std::map<std::vector<std::uint64_t>, std::pair<int, std::vector<std::uint8_t>>>
      seen;
  for (int m = 0; m < opt_.members; ++m) {
    if (!at(m).up || at(m).core->needs_install()) continue;
    const repl::core& c = *at(m).core;
    svc::instance_registry& registry = at(m).service->registry();
    std::vector<std::uint64_t> key{c.applied_index(),
                                   c.log().term_at(c.applied_index())};
    for (int s = 0; s < registry.shard_count(); ++s) {
      key.push_back(registry.shard_last_seq(s));
    }
    // Byte for byte, the shard watermarks' at_ms included: every member
    // runs on the replicated stream's clock.
    auto bytes = registry.snapshot();
    const auto [it, fresh] = seen.emplace(key, std::pair{m, bytes});
    if (!fresh && it->second.second != bytes) {
      fail("members " + std::to_string(it->second.first) + " and " +
           std::to_string(m) + " applied the same prefix (index " +
           std::to_string(key[0]) + ") but their registries differ");
    }
  }
}

// --- Clients ---------------------------------------------------------------

/// Is `key` held on member `m` by no worker that could release it there
/// (its session died with a failover or a restart)?
bool simulation::stranded(int m, const std::string& key) const {
  for (const worker& k : workers_) {
    if (k.lease && k.lease->first == key && k.lease_member == m &&
        k.lease_incarnation == members_[static_cast<std::size_t>(m)]
                                   .incarnation) {
      return false;
    }
  }
  return true;
}

svc::service::session& simulation::session(int m, int w) {
  auto& slot = at(m).sessions[static_cast<std::size_t>(w)];
  if (!slot.has_value()) slot = at(m).service->connect();
  return *slot;
}

void simulation::record(int w, chaos::op_kind op, chaos::outcome result,
                        const std::string& key, std::uint64_t epoch,
                        std::uint64_t start) {
  chaos::record r;
  r.start_us = start * 1000;
  r.end_us = now_ * 1000 + 1;
  r.worker = w;
  r.op = op;
  r.result = result;
  r.key = key;
  r.epoch = epoch;
  history_.push_back(std::move(r));
  mix(0xC11E);
  mix(static_cast<std::uint64_t>(w) << 8 | static_cast<std::uint64_t>(result));
}

void simulation::finish(int w, chaos::outcome result) {
  worker& k = workers_[static_cast<std::size_t>(w)];
  const pending_op op = *k.pending;
  k.pending.reset();
  record(w, op.op, result, op.key, op.epoch, op.start);
  if (result == chaos::outcome::ok) {
    ++result_.committed_ops;
    if (calm_) ++acked_in_calm_;
    if (op.op == chaos::op_kind::acquire) {
      k.lease = std::pair{op.key, op.epoch};
      k.lease_member = op.member;
      k.lease_incarnation = op.incarnation;
    } else if (op.op == chaos::op_kind::release) {
      k.lease.reset();
    }
  } else if (op.op == chaos::op_kind::release) {
    k.lease.reset();  // unconfirmed: the worker stops believing it holds
  }
  push({.at = now_ + think(), .kind = ev::client, .at_member = w,
        .call = ++k.generation});
}

/// Settle worker `w`'s op by the gate's rules: step-down first, then
/// commit, then the commit-wait deadline.
void simulation::resolve(int w) {
  worker& k = workers_[static_cast<std::size_t>(w)];
  if (!k.pending) return;
  const pending_op& op = *k.pending;
  member& s = at(op.member);
  if (!s.up || s.incarnation != op.incarnation) {
    finish(w, chaos::outcome::connection_lost);
    return;
  }
  if (s.hung) return;
  if (!s.core->is_primary() || s.core->term() != op.term) {
    // The gate revokes an unconfirmed grant here too; on a deposed
    // member the replica registry refuses the revoke.
    if (op.op == chaos::op_kind::acquire) {
      (void)session(op.member, w).reclaim(op.key, op.epoch);
      (void)s.core->replicate();
    }
    finish(w, chaos::outcome::connection_lost);
    return;
  }
  if (s.core->commit_index() >= op.index) {
    finish(w, chaos::outcome::ok);
    return;
  }
  if (now_ >= op.deadline) {
    if (op.op == chaos::op_kind::acquire) {
      // The gate revokes a grant it could not confirm.
      (void)session(op.member, w).reclaim(op.key, op.epoch);
      (void)s.core->replicate();
    }
    finish(w, chaos::outcome::connection_lost);
  }
}

void simulation::on_client(int w) {
  worker& k = workers_[static_cast<std::size_t>(w)];
  if (k.pending) {
    resolve(w);
    if (k.pending) {
      push({.at = std::max(now_ + 1, k.pending->deadline), .kind = ev::client,
            .at_member = w, .call = k.generation});
    }
    return;
  }
  std::vector<int> primaries;
  for (int m = 0; m < opt_.members; ++m) {
    if (serving(m) && at(m).core->is_primary()) primaries.push_back(m);
  }
  if (primaries.empty()) {
    push({.at = now_ + draw(5, 15), .kind = ev::client, .at_member = w,
          .call = ++k.generation});
    return;
  }
  const int m = primaries[draw(0, primaries.size() - 1)];
  member& s = at(m);
  if (k.member >= 0 && k.member != m) {
    // Failing over from a member that answers not_primary, the client
    // closes its connection there, and that server's disconnect hook
    // reclaims the connection's session — on a replica registry, which
    // refuses it.
    member& old = at(k.member);
    auto& slot = old.sessions[static_cast<std::size_t>(w)];
    if (old.up && old.incarnation == k.member_incarnation &&
        !old.core->is_primary() && slot.has_value()) {
      (void)slot->reclaim_all();
      slot.reset();
    }
  }
  k.member = m;
  k.member_incarnation = s.incarnation;
  svc::service::session& sn = session(m, w);
  svc::instance_registry& registry = s.service->registry();
  pending_op op{.member = m,
                .incarnation = s.incarnation,
                .term = s.core->term(),
                .start = now_,
                .deadline = now_ + config_.commit_wait_ms};
  if (k.lease.has_value()) {
    op.key = k.lease->first;
    op.epoch = k.lease->second;
    svc::lease_status status;
    if (chance(0.3)) {
      op.op = chaos::op_kind::renew;
      status = sn.renew(op.key, op.epoch);
    } else {
      op.op = chaos::op_kind::release;
      status = sn.release(op.key, op.epoch);
    }
    if (status != svc::lease_status::ok) {
      // The lease lives in another member's session (a failover moved
      // the primary): nobody can release it, so an operator clears it.
      k.lease.reset();
      record(w, op.op,
             status == svc::lease_status::stale_epoch
                 ? chaos::outcome::stale_epoch
                 : chaos::outcome::not_leader,
             op.key, op.epoch, now_);
      (void)s.service->force_release(op.key);
      (void)s.core->replicate();
      after(m);
      push({.at = now_ + think(), .kind = ev::client, .at_member = w,
            .call = ++k.generation});
      return;
    }
  } else {
    op.op = chaos::op_kind::acquire;
    op.key = "k" + std::to_string(draw(0, opt_.keys - 1));
    const svc::acquire_result got = sn.try_acquire(op.key);
    if (!got.won) {
      record(w, op.op, chaos::outcome::lost, op.key, got.epoch, now_);
      if (registry.leader_of(op.key) >= 0 && stranded(m, op.key)) {
        (void)s.service->force_release(op.key);  // as above
        (void)s.core->replicate();
        after(m);
      }
      push({.at = now_ + think(), .kind = ev::client, .at_member = w,
            .call = ++k.generation});
      return;
    }
    op.epoch = got.epoch;
  }
  op.index = s.core->log().last_index();
  k.pending = op;
  (void)s.core->replicate();
  push({.at = op.deadline, .kind = ev::client, .at_member = w,
        .call = ++k.generation});
  after(m);
}

// --- The run ---------------------------------------------------------------

sim_result simulation::run() {
  for (int m = 0; m < opt_.members; ++m) {
    push({.at = draw(0, repl::core::tick_ms - 1), .kind = ev::tick,
          .at_member = m});
  }
  for (int w = 0; w < opt_.workers; ++w) {
    push({.at = draw(0, 20), .kind = ev::client, .at_member = w,
          .call = ++workers_[static_cast<std::size_t>(w)].generation});
  }
  push({.at = 200, .kind = ev::phase});
  push({.at = 100, .kind = ev::check});
  bool done = false;
  while (!done && !queue_.empty()) {
    std::pop_heap(queue_.begin(), queue_.end(), later);
    event e = std::move(queue_.back());
    queue_.pop_back();
    now_ = e.at;
    if (e.kind == ev::phase && calm_) {
      done = true;  // the calm stretch ran its 10 election timeouts
      break;
    }
    on_event(e);
  }
  check_replicas();
  bool primary = false;
  for (int m = 0; m < opt_.members; ++m) {
    primary = primary || (serving(m) && at(m).core->is_primary());
  }
  if (!primary) fail("no primary after the calm stretch");
  if (acked_in_calm_ == 0) fail("no client op committed in the calm stretch");
  const chaos::report verdict = chaos::check(history_, {});
  if (!verdict.ok()) fail("client history: " + verdict.to_string());
  result_.trace_hash = hash_;
  return result_;
}

// --- The sweep --------------------------------------------------------------

/// Sweep-wide figures, printed once the binary finishes.
struct sweep_stats {
  std::uint64_t seeds = 0;
  double seconds = 0;
  std::uint64_t messages = 0;
  std::vector<std::uint64_t> committed;
  std::map<int, std::uint64_t> seeds_with_fault;
};

sweep_stats& stats_for(int members) {
  static std::map<int, sweep_stats> all;
  return all[members];
}

class sweep_report : public ::testing::Environment {
 public:
  void TearDown() override {
    for (const int n : {3, 5}) {
      sweep_stats& s = stats_for(n);
      if (s.seeds == 0) continue;
      std::sort(s.committed.begin(), s.committed.end());
      std::printf(
          "[ sim ] %d members: %llu seeds in %.2f s (%.0f seeds/s), %llu "
          "messages, median %llu committed client ops per seed\n",
          n, static_cast<unsigned long long>(s.seeds), s.seconds,
          static_cast<double>(s.seeds) / std::max(s.seconds, 1e-9),
          static_cast<unsigned long long>(s.messages),
          static_cast<unsigned long long>(s.committed[s.committed.size() / 2]));
      for (int k = 0; k < static_cast<int>(fault::count); ++k) {
        std::printf("[ sim ]   %-19s in %5.1f%% of seeds\n", fault_names[k],
                    100.0 * static_cast<double>(s.seeds_with_fault[k]) /
                        static_cast<double>(s.seeds));
      }
    }
  }
};

const auto* const report_registration =
    ::testing::AddGlobalTestEnvironment(new sweep_report);

sim_result run_seed(int members, std::uint64_t seed) {
  const auto started = std::chrono::steady_clock::now();
  sim_result r = simulation({.members = members, .seed = seed}).run();
  sweep_stats& s = stats_for(members);
  ++s.seeds;
  s.seconds += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - started)
                   .count();
  s.messages += r.messages;
  s.committed.push_back(r.committed_ops);
  for (const fault f : r.faults) ++s.seeds_with_fault[static_cast<int>(f)];
  return r;
}

std::string describe(const sim_result& r) {
  std::string out = "trace hash " + std::to_string(r.trace_hash) + ", " +
                    std::to_string(r.messages) + " messages, max term " +
                    std::to_string(r.max_term) + ", faults:";
  for (const fault f : r.faults) out += std::string(" ") + fault_names[static_cast<int>(f)];
  for (const std::string& v : r.violations) out += "\n  " + v;
  return out;
}

class ReplSim3 : public ::testing::TestWithParam<int> {};
class ReplSim5 : public ::testing::TestWithParam<int> {};

TEST_P(ReplSim3, SeedHolds) {
  const sim_result r = run_seed(3, static_cast<std::uint64_t>(GetParam()));
  EXPECT_TRUE(r.violations.empty()) << "seed " << GetParam() << ": "
                                    << describe(r);
}

TEST_P(ReplSim5, SeedHolds) {
  const sim_result r = run_seed(5, static_cast<std::uint64_t>(GetParam()));
  EXPECT_TRUE(r.violations.empty()) << "seed " << GetParam() << ": "
                                    << describe(r);
}

/// Names each case by its seed, so --gtest_filter='*/N' replays seed N.
std::string seed_name(const ::testing::TestParamInfo<int>& info) {
  return std::to_string(info.param);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplSim3, ::testing::Range(1, 1001),
                         seed_name);
INSTANTIATE_TEST_SUITE_P(Seeds, ReplSim5, ::testing::Range(1, 201),
                         seed_name);

// --- Lab scenarios ------------------------------------------------------------
//
// Named schedules in the style of a consensus lab suite, each printing
// its message total so a protocol change that costs more messages shows.

TEST(ReplSimLab, SameSeedReplaysTheSameTrace) {
  const sim_result a = simulation({.members = 3, .seed = 9}).run();
  const sim_result b = simulation({.members = 3, .seed = 9}).run();
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_NE(a.trace_hash,
            simulation({.members = 3, .seed = 10}).run().trace_hash);
  std::printf("[ lab ] seed 9 trace hash %llu\n",
              static_cast<unsigned long long>(a.trace_hash));
}

TEST(ReplSimLab, BasicAgree) {
  const sim_result r =
      simulation({.members = 3, .seed = 1, .fault_ms = 0}).run();
  EXPECT_TRUE(r.violations.empty()) << describe(r);
  EXPECT_GT(r.committed_ops, 0u);
  std::printf("[ lab ] BasicAgree: %llu messages, %llu committed ops\n",
              static_cast<unsigned long long>(r.messages),
              static_cast<unsigned long long>(r.committed_ops));
}

TEST(ReplSimLab, FailNoQuorum) {
  const sim_result r = simulation({.members = 5,
                                   .seed = 2,
                                   .kinds = {fault::partition,
                                             fault::isolate_primary}})
                           .run();
  EXPECT_TRUE(r.violations.empty()) << describe(r);
  std::printf("[ lab ] FailNoQuorum: %llu messages, %llu committed ops\n",
              static_cast<unsigned long long>(r.messages),
              static_cast<unsigned long long>(r.committed_ops));
}

TEST(ReplSimLab, ConcurrentUnreliableAgree) {
  const sim_result r = simulation({.members = 5,
                                   .seed = 3,
                                   .workers = 12,
                                   .kinds = {fault::flaky}})
                           .run();
  EXPECT_TRUE(r.violations.empty()) << describe(r);
  EXPECT_GT(r.committed_ops, 0u);
  std::printf(
      "[ lab ] ConcurrentUnreliableAgree: %llu messages, %llu committed ops\n",
      static_cast<unsigned long long>(r.messages),
      static_cast<unsigned long long>(r.committed_ops));
}

TEST(ReplSimLab, UnresponsiveMemberDoesNotStallElections) {
  const sim_result r = simulation({.members = 3,
                                   .seed = 4,
                                   .kinds = {fault::hang, fault::crash}})
                           .run();
  EXPECT_TRUE(r.violations.empty()) << describe(r);
  std::printf(
      "[ lab ] UnresponsiveMemberDoesNotStallElections: %llu messages\n",
      static_cast<unsigned long long>(r.messages));
}

// A deposed primary takes no live mutation: once the core steps down,
// its registry is a replica. Member 0 wins term 1 and grants "k"; a
// term-2 vote request deposes it; then a disconnect reclaim, a revoke
// and a grant all change nothing — the shard seq and the holder stay
// put, so the registry never runs ahead of the replicated log.
TEST(ReplSimLab, DeposedPrimaryTakesNoMutation) {
  std::vector<std::unique_ptr<svc::service>> services;
  std::vector<std::unique_ptr<repl::core>> cores;
  for (int m = 0; m < 3; ++m) {
    svc::service_config sc;
    sc.nodes = 2;
    sc.shards = 2;
    sc.session_id_base = m << 24;
    sc.key_strategies["adaptive"] = election::strategy_kind::adaptive;
    services.push_back(std::make_unique<svc::service>(std::move(sc)));
    repl::cluster_config cc = sim_cluster(3, 5);
    cc.self = m;
    cores.push_back(std::make_unique<repl::core>(
        cc, *services.back(), repl::vote_record{},
        [](const repl::vote_record&) { return true; }, 0));
  }
  // Deliver `from`'s message for peer slot `slot` and fold the reply.
  const auto exchange = [&](int from, std::size_t slot, int to,
                            std::uint64_t now) {
    const auto msg = cores[static_cast<std::size_t>(from)]->next_message(slot,
                                                                        now);
    ASSERT_TRUE(msg.has_value());
    net::wire::request request;
    request.kind = msg->kind;
    request.body = msg->body;
    net::wire::response reply;
    (void)cores[static_cast<std::size_t>(to)]->handle_peer(request, now,
                                                           reply);
    (void)cores[static_cast<std::size_t>(from)]->on_reply(slot, *msg, reply,
                                                          now);
  };

  (void)cores[0]->tick(200);  // past every election deadline
  exchange(0, 0, 1, 200);     // member 1 votes for member 0
  ASSERT_TRUE(cores[0]->is_primary());
  ASSERT_EQ(cores[0]->term(), 1u);

  svc::service& deposed = *services[0];
  svc::instance_registry& registry = deposed.registry();
  auto holder = deposed.connect();
  const auto won = holder.try_acquire("k");
  ASSERT_TRUE(won.won);
  (void)cores[0]->replicate();

  (void)cores[1]->tick(400);  // member 1 starts term 2
  exchange(1, 0, 0, 400);     // ... and its vote request deposes member 0
  ASSERT_FALSE(cores[0]->is_primary());
  ASSERT_EQ(cores[0]->term(), 2u);

  const std::uint64_t seqs[2] = {registry.shard_last_seq(0),
                                 registry.shard_last_seq(1)};
  const std::uint64_t log_index = cores[0]->log().last_index();
  EXPECT_EQ(holder.reclaim_all(), 0u);
  EXPECT_EQ(holder.reclaim("k", won.epoch),
            svc::lease_status::connection_lost);
  auto rival = deposed.connect();
  for (const std::string key : {"k", "fresh", "adaptive"}) {
    const auto got = rival.try_acquire(key);
    EXPECT_FALSE(got.won) << key;
    EXPECT_TRUE(got.rejected && got.connection_lost) << key;
  }
  EXPECT_EQ(registry.shard_last_seq(0), seqs[0]);
  EXPECT_EQ(registry.shard_last_seq(1), seqs[1]);
  EXPECT_EQ(registry.leader_of("k"), holder.id());
  EXPECT_EQ(registry.leader_of("fresh"), -1);
  EXPECT_EQ(registry.leader_of("adaptive"), -1);
  EXPECT_EQ(cores[0]->log().last_index(), log_index);
}

}  // namespace
}  // namespace elect
