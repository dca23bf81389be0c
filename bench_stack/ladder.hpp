// The traced run's layer ladder (see ladder.cpp).
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"

namespace bstack {

/// The ops a ladder replays: the workload's generated keys in schedule
/// order, the connection (session) each rides, and whether a won
/// acquire is renewed twice before its release.
struct ladder_ops {
  std::vector<std::string> keys;
  std::vector<int> conn;
  int conns = 1;
  bool renews = true;
};

struct ladder_result {
  double registry_ns = 0.0;  // registry rung, median per op
  double session_ns = 0.0;   // session rung minus registry rung
  double api_ns = 0.0;       // api rung minus session rung (acq + rel)
  double net_us = 0.0;       // net rung minus session rung
  double trace_op_ns = 0.0;  // obs rung minus net rung
  double repl_us = 0.0;      // cluster rung minus net rung
  double session_handoff_us = 0.0;
  double cmd_retained = 0.0;
  double cmd_recorded = 0.0;
  double cluster_ops = 0.0;  // ops the cluster rung replayed
  double entries_per_append = 0.0;
  double commit_timeouts = 0.0;
  double append_failures = 0.0;
  double time_to_primary_ms = 0.0;
  double failover_gap_ms = 0.0;
  double elections_per_failover = 0.0;
};

/// Run every rung. `spans` collects the cluster rung's hook spans;
/// with `with_kill` the cluster rung ends with two primary kills under
/// the outage probe, which also give the failover and repl counter
/// fields (left 0 otherwise).
[[nodiscard]] ladder_result run_ladder(const ladder_ops& ops,
                                       const pinned_config& single,
                                       const pinned_config& cluster,
                                       hook_spans& spans, bool with_kill);

}  // namespace bstack
