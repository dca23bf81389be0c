#include "svc/metrics.hpp"

#include <sstream>

namespace elect::svc {

service_report service_metrics::snapshot() const {
  service_report report;
  report.shards.reserve(shards_.size());
  for (const shard_counters& s : shards_) {
    shard_report sr;
    sr.acquires = s.acquires.load(std::memory_order_relaxed);
    sr.wins = s.wins.load(std::memory_order_relaxed);
    sr.releases = s.releases.load(std::memory_order_relaxed);
    sr.expirations = s.expirations.load(std::memory_order_relaxed);
    sr.renewals = s.renewals.load(std::memory_order_relaxed);
    sr.stale_fences = s.stale_fences.load(std::memory_order_relaxed);
    sr.forced_releases = s.forced_releases.load(std::memory_order_relaxed);
    report.acquires += sr.acquires;
    report.wins += sr.wins;
    report.releases += sr.releases;
    report.expirations += sr.expirations;
    report.renewals += sr.renewals;
    report.stale_fences += sr.stale_fences;
    report.forced_releases += sr.forced_releases;
    report.shards.push_back(sr);
  }
  report.rejected_acquires =
      rejected_acquires_.load(std::memory_order_relaxed);
  for (std::size_t k = 0; k < strategies_.size(); ++k) {
    report.strategies[k].acquires =
        strategies_[k].acquires.load(std::memory_order_relaxed);
    report.strategies[k].wins =
        strategies_[k].wins.load(std::memory_order_relaxed);
  }
  report.fast_path.hits = fast_path_hits_.load(std::memory_order_relaxed);
  report.fast_path.conflicts =
      fast_path_conflicts_.load(std::memory_order_relaxed);
  report.fast_path.fallbacks =
      fast_path_fallbacks_.load(std::memory_order_relaxed);
  report.short_circuit_losses =
      short_circuit_losses_.load(std::memory_order_relaxed);
  report.acquire_p50_ms = acquire_latency_.quantile(0.50) / 1e6;
  report.acquire_p99_ms = acquire_latency_.quantile(0.99) / 1e6;
  report.acquire_latency_count = acquire_latency_.count();
  report.acquire_latency_sum_us =
      static_cast<double>(acquire_latency_.sum_ns()) / 1e3;
  report.acquire_latency_buckets = acquire_latency_.bucket_counts();
  report.trace = obs::counters();
  return report;
}

std::string service_report::to_json() const {
  std::ostringstream out;
  out << "{";
  out << "\"acquires\":" << acquires << ",";
  out << "\"wins\":" << wins << ",";
  out << "\"releases\":" << releases << ",";
  out << "\"expirations\":" << expirations << ",";
  out << "\"renewals\":" << renewals << ",";
  out << "\"stale_fences\":" << stale_fences << ",";
  out << "\"forced_releases\":" << forced_releases << ",";
  out << "\"rejected_acquires\":" << rejected_acquires << ",";
  out << "\"strategies\":{";
  for (int k = 0; k < election::strategy_kind_count; ++k) {
    if (k > 0) out << ",";
    const strategy_report& sr = strategies[static_cast<std::size_t>(k)];
    out << "\"" << election::to_string(static_cast<election::strategy_kind>(k))
        << "\":{\"acquires\":" << sr.acquires << ",\"wins\":" << sr.wins
        << "}";
  }
  out << "},";
  out << "\"fast_path\":{\"hits\":" << fast_path.hits
      << ",\"conflicts\":" << fast_path.conflicts
      << ",\"fallbacks\":" << fast_path.fallbacks
      << ",\"hit_rate\":" << fast_path.hit_rate() << "},";
  out << "\"short_circuit_losses\":" << short_circuit_losses << ",";
  out << "\"acquire_p50_ms\":" << acquire_p50_ms << ",";
  out << "\"acquire_p99_ms\":" << acquire_p99_ms << ",";
  out << "\"acquire_latency\":{\"count\":" << acquire_latency_count
      << ",\"sum_us\":" << acquire_latency_sum_us << "},";
  out << "\"participated_entries\":" << participated_entries << ",";
  out << "\"pool_variables\":" << pool_variables << ",";
  out << "\"total_messages\":" << total_messages << ",";
  out << "\"mailbox_pushes\":" << mailbox_pushes << ",";
  out << "\"pool_trace_hash\":" << pool_trace_hash << ",";
  out << "\"messages_per_acquire\":" << messages_per_acquire << ",";
  out << "\"mean_communicate_calls\":" << mean_communicate_calls << ",";
  out << "\"max_communicate_calls\":" << max_communicate_calls << ",";
  out << "\"watch\":{\"active\":" << watch.active
      << ",\"published\":" << watch.published
      << ",\"delivered\":" << watch.delivered
      << ",\"dropped\":" << watch.dropped << "},";
  out << "\"trace\":{\"minted\":" << trace.minted
      << ",\"spans\":" << trace.spans
      << ",\"slow_captured\":" << trace.slow_captured
      << ",\"slow_evicted\":" << trace.slow_evicted << "},";
  out << "\"journal\":{\"appended\":" << journal.appended
      << ",\"evicted\":" << journal.evicted
      << ",\"flushed\":" << journal.flushed
      << ",\"flush_errors\":" << journal.flush_errors << "},";
  if (!net_json.empty()) out << "\"net\":" << net_json << ",";
  if (!repl_json.empty()) out << "\"repl\":" << repl_json << ",";
  out << "\"shards\":[";
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (i > 0) out << ",";
    out << "{\"acquires\":" << shards[i].acquires
        << ",\"wins\":" << shards[i].wins
        << ",\"releases\":" << shards[i].releases
        << ",\"expirations\":" << shards[i].expirations
        << ",\"renewals\":" << shards[i].renewals
        << ",\"stale_fences\":" << shards[i].stale_fences
        << ",\"forced_releases\":" << shards[i].forced_releases
        << ",\"keys\":" << shards[i].keys << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace elect::svc
