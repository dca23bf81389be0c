// latency_histogram unit tests: bucket-edge placement (0, 1, powers of
// two, overflow), the consistent tail estimate, quantile monotonicity,
// the lease counters' JSON round-trip — and a real JSON parse of the
// whole report, asserting every documented key survives (CI uploads
// these reports as artifacts; silent schema drift breaks every
// downstream diff without failing anything, so this test fails it).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "svc/metrics.hpp"
#include "svc/service.hpp"

namespace elect {
namespace {

using svc::latency_histogram;

constexpr int top = latency_histogram::bucket_count - 1;  // overflow bucket

TEST(LatencyHistogram, EmptyQuantileIsZero) {
  latency_histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.quantile(1.0), 0.0);
}

TEST(LatencyHistogram, BucketZeroHoldsZeroAndOne) {
  // Bucket 0 covers [0, 2): samples 0 and 1 share it; its midpoint is 1.
  latency_histogram h;
  h.add(0);
  h.add(1);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.quantile(0.0), 1.0);
  EXPECT_EQ(h.quantile(1.0), 1.0);
}

TEST(LatencyHistogram, PowerOfTwoBoundariesLandInTheirBucket) {
  // 2^b is the *low* edge of bucket b; 2^b - 1 is the top of bucket b-1.
  for (int b = 1; b < top; ++b) {
    latency_histogram below;
    below.add((1ULL << b) - 1);
    EXPECT_EQ(below.quantile(0.5), latency_histogram::bucket_midpoint(b - 1))
        << "sample 2^" << b << " - 1";

    latency_histogram at;
    at.add(1ULL << b);
    EXPECT_EQ(at.quantile(0.5), latency_histogram::bucket_midpoint(b))
        << "sample 2^" << b;
  }
}

TEST(LatencyHistogram, MidpointsAreGeometricBucketCenters) {
  // Bucket b covers [2^b, 2^(b+1)); spot-check the arithmetic midpoints.
  EXPECT_EQ(latency_histogram::bucket_midpoint(0), 1.0);        // [0, 2)
  EXPECT_EQ(latency_histogram::bucket_midpoint(1), 3.0);        // [2, 4)
  EXPECT_EQ(latency_histogram::bucket_midpoint(2), 6.0);        // [4, 8)
  EXPECT_EQ(latency_histogram::bucket_midpoint(10), 1536.0);    // [1024, 2048)
}

TEST(LatencyHistogram, OverflowTailIsConsistentWithBody) {
  // Everything at or above 2^47 collapses into the overflow bucket. The
  // old code returned the bucket's *lower bound* on one path while every
  // other bucket reported its midpoint; the tail estimate must now be
  // the same midpoint everywhere and never sit below the lower bound of
  // the bucket's range.
  const double tail_midpoint = latency_histogram::bucket_midpoint(top);
  EXPECT_EQ(tail_midpoint,
            (static_cast<double>(1ULL << top) +
             static_cast<double>(2ULL << top)) /
                2.0);

  latency_histogram h;
  h.add(1ULL << top);                  // low edge of the overflow bucket
  h.add((1ULL << top) + 12345);        // inside
  h.add(~0ULL);                        // far beyond the nominal range
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.quantile(0.0), tail_midpoint);
  EXPECT_EQ(h.quantile(0.5), tail_midpoint);
  EXPECT_EQ(h.quantile(1.0), tail_midpoint);
  EXPECT_GT(h.quantile(1.0), static_cast<double>(1ULL << top));
}

TEST(LatencyHistogram, TailDoesNotDipBelowPrecedingBucket) {
  // Regression shape for the old bug: with samples in bucket top-1 and
  // the overflow bucket, a p99 landing in the overflow bucket must be >=
  // the p50 landing below it (the lower-bound tail could tie or invert).
  latency_histogram h;
  for (int i = 0; i < 98; ++i) h.add(1ULL << (top - 1));
  h.add(~0ULL);
  h.add(~0ULL);
  const double p50 = h.quantile(0.50);
  const double p99 = h.quantile(0.99);
  EXPECT_EQ(p50, latency_histogram::bucket_midpoint(top - 1));
  EXPECT_EQ(p99, latency_histogram::bucket_midpoint(top));
  EXPECT_GT(p99, p50);
}

TEST(LatencyHistogram, QuantileIsMonotoneInQ) {
  latency_histogram h;
  for (std::uint64_t v : {0ULL, 1ULL, 5ULL, 100ULL, 4096ULL, 1ULL << 20,
                          1ULL << 40, ~0ULL}) {
    h.add(v);
  }
  double previous = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    const double value = h.quantile(q);
    EXPECT_GE(value, previous) << "q=" << q;
    previous = value;
  }
}

TEST(ServiceReport, LeaseCountersRoundTripThroughJson) {
  svc::service_metrics metrics(2);
  metrics.record_acquire(0, election::strategy_kind::full, /*won=*/true,
                         /*latency_ns=*/1000);
  metrics.record_acquire(1, election::strategy_kind::adaptive, /*won=*/true,
                         /*latency_ns=*/500);
  metrics.record_release(0);
  metrics.record_expiration(1);
  metrics.record_renewal(0);
  metrics.record_renewal(0);
  metrics.record_stale_fence(1);
  metrics.record_rejected_acquire();
  metrics.record_fast_path_hit();
  metrics.record_fast_path_conflict();
  metrics.record_fast_path_fallback();
  metrics.record_short_circuit_loss();

  const svc::service_report report = metrics.snapshot();
  EXPECT_EQ(report.expirations, 1u);
  EXPECT_EQ(report.renewals, 2u);
  EXPECT_EQ(report.stale_fences, 1u);
  EXPECT_EQ(report.rejected_acquires, 1u);
  const auto full_idx =
      static_cast<std::size_t>(election::strategy_kind::full);
  const auto adaptive_idx =
      static_cast<std::size_t>(election::strategy_kind::adaptive);
  EXPECT_EQ(report.strategies[full_idx].acquires, 1u);
  EXPECT_EQ(report.strategies[full_idx].wins, 1u);
  EXPECT_EQ(report.strategies[adaptive_idx].acquires, 1u);
  EXPECT_EQ(report.fast_path.hits, 1u);
  EXPECT_EQ(report.fast_path.conflicts, 1u);
  EXPECT_EQ(report.fast_path.fallbacks, 1u);
  EXPECT_NEAR(report.fast_path.hit_rate(), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(report.short_circuit_losses, 1u);

  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"expirations\":1"), std::string::npos);
  EXPECT_NE(json.find("\"renewals\":2"), std::string::npos);
  EXPECT_NE(json.find("\"stale_fences\":1"), std::string::npos);
  EXPECT_NE(json.find("\"rejected_acquires\":1"), std::string::npos);
  EXPECT_NE(json.find("\"participated_entries\":"), std::string::npos);
  EXPECT_NE(json.find("\"strategies\":{\"full\":{\"acquires\":1,\"wins\":1}"),
            std::string::npos);
  EXPECT_NE(json.find("\"fast_path\":{\"hits\":1,\"conflicts\":1"),
            std::string::npos);
  EXPECT_NE(json.find("\"short_circuit_losses\":1"), std::string::npos);
}

// ---------------------------------------------------------------------
// Schema round-trip: a minimal recursive-descent JSON parser (numbers,
// strings, bools, null, arrays, objects — everything the report emits),
// run over a real service's report. No third-party dependency: the
// point is to parse what we actually wrote, not to validate JSON in
// general, so unescaping is limited to what json_escape produces.

struct json_value;
using json_object = std::map<std::string, std::shared_ptr<json_value>>;
using json_array = std::vector<std::shared_ptr<json_value>>;

struct json_value {
  std::variant<std::nullptr_t, bool, double, std::string, json_array,
               json_object>
      v;

  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(v);
  }
  [[nodiscard]] double number() const { return std::get<double>(v); }
  [[nodiscard]] const json_object& object() const {
    return std::get<json_object>(v);
  }
  [[nodiscard]] const json_array& array() const {
    return std::get<json_array>(v);
  }
};

class json_parser {
 public:
  explicit json_parser(const std::string& text) : text_(text) {}

  /// Parse one complete document; empty on any malformation (including
  /// trailing bytes — the report must be exactly one object).
  [[nodiscard]] std::shared_ptr<json_value> parse() {
    auto value = parse_value();
    skip_ws();
    if (!ok_ || at_ != text_.size()) return nullptr;
    return value;
  }

 private:
  void skip_ws() {
    while (at_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[at_]))) {
      ++at_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (at_ < text_.size() && text_[at_] == c) {
      ++at_;
      return true;
    }
    ok_ = false;
    return false;
  }

  bool literal(const std::string& word) {
    if (text_.compare(at_, word.size(), word) == 0) {
      at_ += word.size();
      return true;
    }
    ok_ = false;
    return false;
  }

  std::shared_ptr<json_value> parse_value() {
    skip_ws();
    if (at_ >= text_.size()) {
      ok_ = false;
      return nullptr;
    }
    const char c = text_[at_];
    auto value = std::make_shared<json_value>();
    switch (c) {
      case '{': {
        json_object object;
        ++at_;
        skip_ws();
        if (at_ < text_.size() && text_[at_] == '}') {
          ++at_;
        } else {
          do {
            std::string key;
            if (!parse_string(key)) return nullptr;
            if (!consume(':')) return nullptr;
            auto member = parse_value();
            if (!ok_) return nullptr;
            object.emplace(std::move(key), std::move(member));
            skip_ws();
          } while (at_ < text_.size() && text_[at_] == ',' && ++at_);
          if (!consume('}')) return nullptr;
        }
        value->v = std::move(object);
        return value;
      }
      case '[': {
        json_array array;
        ++at_;
        skip_ws();
        if (at_ < text_.size() && text_[at_] == ']') {
          ++at_;
        } else {
          do {
            auto element = parse_value();
            if (!ok_) return nullptr;
            array.push_back(std::move(element));
            skip_ws();
          } while (at_ < text_.size() && text_[at_] == ',' && ++at_);
          if (!consume(']')) return nullptr;
        }
        value->v = std::move(array);
        return value;
      }
      case '"': {
        std::string s;
        if (!parse_string(s)) return nullptr;
        value->v = std::move(s);
        return value;
      }
      case 't':
        if (!literal("true")) return nullptr;
        value->v = true;
        return value;
      case 'f':
        if (!literal("false")) return nullptr;
        value->v = false;
        return value;
      case 'n':
        if (!literal("null")) return nullptr;
        value->v = nullptr;
        return value;
      default: {
        const std::size_t start = at_;
        while (at_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[at_])) ||
                text_[at_] == '-' || text_[at_] == '+' || text_[at_] == '.' ||
                text_[at_] == 'e' || text_[at_] == 'E')) {
          ++at_;
        }
        if (at_ == start) {
          ok_ = false;
          return nullptr;
        }
        value->v = std::stod(text_.substr(start, at_ - start));
        return value;
      }
    }
  }

  bool parse_string(std::string& out) {
    skip_ws();
    if (!consume('"')) return false;
    out.clear();
    while (at_ < text_.size() && text_[at_] != '"') {
      char c = text_[at_++];
      if (c == '\\' && at_ < text_.size()) {
        const char escaped = text_[at_++];
        switch (escaped) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          default: c = escaped; break;  // \" \\ \/ — and json_escape
        }                               // emits nothing more exotic
      }
      out.push_back(c);
    }
    return consume('"');
  }

  const std::string& text_;
  std::size_t at_ = 0;
  bool ok_ = true;
};

const json_value& member(const json_object& object, const std::string& key) {
  const auto it = object.find(key);
  EXPECT_NE(it, object.end()) << "missing documented key: " << key;
  static const json_value missing{};
  return it == object.end() ? missing : *it->second;
}

TEST(ServiceReportSchema, DocumentedKeysSurviveAJsonRoundTrip) {
  // A real service, real traffic: wins, losses, releases, fences, and a
  // renewal all land in the report before it is serialized.
  svc::service service(svc::service_config{.nodes = 2,
                                           .shards = 3,
                                           .seed = 21,
                                           .lease_ttl_ms = 60'000,
                                           .sweep_interval_ms = 30'000});
  auto holder = service.connect();
  auto rival = service.connect();
  const auto won = holder.try_acquire("schema/a");
  ASSERT_TRUE(won.won);
  EXPECT_FALSE(rival.try_acquire("schema/a").won);
  EXPECT_EQ(holder.renew("schema/a", won.epoch), svc::lease_status::ok);
  EXPECT_EQ(rival.release("schema/a"), svc::lease_status::not_leader);
  EXPECT_EQ(holder.release("schema/a", won.epoch), svc::lease_status::ok);

  svc::service_report report = service.report();
  // The net extension rides the same report; exercise it too.
  report.net_json = "{\"frames_in\":7,\"disconnect_reclaims\":0}";
  const std::string json = report.to_json();

  const auto document = json_parser(json).parse();
  ASSERT_NE(document, nullptr) << "report is not valid JSON:\n" << json;
  const json_object& root = document->object();

  // Scalar counters.
  for (const std::string key :
       {"acquires", "wins", "releases", "expirations", "renewals",
        "stale_fences", "forced_releases", "rejected_acquires",
        "short_circuit_losses", "participated_entries", "pool_variables",
        "total_messages", "mailbox_pushes", "pool_trace_hash"}) {
    const json_value& value = member(root, key);
    ASSERT_TRUE(value.is_number()) << key;
    EXPECT_GE(value.number(), 0.0) << key;
  }
  EXPECT_EQ(member(root, "acquires").number(), 2.0);
  EXPECT_EQ(member(root, "wins").number(), 1.0);
  EXPECT_EQ(member(root, "releases").number(), 1.0);
  EXPECT_EQ(member(root, "renewals").number(), 1.0);
  EXPECT_EQ(member(root, "stale_fences").number(), 1.0);

  // Rates and latency quantiles.
  for (const std::string key :
       {"messages_per_acquire", "mean_communicate_calls", "acquire_p50_ms",
        "acquire_p99_ms"}) {
    EXPECT_TRUE(member(root, key).is_number()) << key;
  }

  // Per-strategy block: one object per strategy_kind, each with
  // acquires + wins.
  const json_object& strategies = member(root, "strategies").object();
  ASSERT_EQ(strategies.size(),
            static_cast<std::size_t>(election::strategy_kind_count));
  for (int k = 0; k < election::strategy_kind_count; ++k) {
    const std::string name(
        election::to_string(static_cast<election::strategy_kind>(k)));
    const json_object& s = member(strategies, name).object();
    EXPECT_TRUE(member(s, "acquires").is_number()) << name;
    EXPECT_TRUE(member(s, "wins").is_number()) << name;
  }

  // Fast-path block.
  const json_object& fast_path = member(root, "fast_path").object();
  for (const std::string key : {"hits", "conflicts", "fallbacks", "hit_rate"}) {
    EXPECT_TRUE(member(fast_path, key).is_number()) << key;
  }

  // Acquire-latency totals (the Prometheus _count/_sum pair).
  const json_object& latency = member(root, "acquire_latency").object();
  for (const std::string key : {"count", "sum_us"}) {
    EXPECT_TRUE(member(latency, key).is_number()) << key;
  }
  EXPECT_EQ(member(latency, "count").number(), 2.0);
  EXPECT_GE(member(latency, "sum_us").number(), 0.0);

  // Watch-hub block (subscriptions + delivery counters).
  const json_object& watch = member(root, "watch").object();
  for (const std::string key :
       {"active", "published", "delivered", "dropped"}) {
    EXPECT_TRUE(member(watch, key).is_number()) << key;
  }

  // Tracer block (lifetime process-wide counters).
  const json_object& trace = member(root, "trace").object();
  for (const std::string key :
       {"minted", "spans", "slow_captured", "slow_evicted"}) {
    EXPECT_TRUE(member(trace, key).is_number()) << key;
  }

  // Event-journal block.
  const json_object& journal = member(root, "journal").object();
  for (const std::string key :
       {"appended", "evicted", "flushed", "flush_errors"}) {
    EXPECT_TRUE(member(journal, key).is_number()) << key;
  }

  // Per-shard array: one entry per shard, all counters present.
  const json_array& shards = member(root, "shards").array();
  ASSERT_EQ(shards.size(), 3u);
  double keys_total = 0.0;
  for (const auto& shard : shards) {
    const json_object& s = shard->object();
    for (const std::string key : {"acquires", "wins", "releases",
                                  "expirations", "renewals", "stale_fences",
                                  "forced_releases", "keys"}) {
      EXPECT_TRUE(member(s, key).is_number()) << key;
    }
    keys_total += member(s, "keys").number();
  }
  EXPECT_EQ(keys_total, 1.0);

  // The embedded net section parsed as part of the same document.
  const json_object& net = member(root, "net").object();
  EXPECT_EQ(member(net, "frames_in").number(), 7.0);
}

TEST(ServiceReportSchema, ReportWithoutNetSectionOmitsTheKey) {
  svc::service_metrics metrics(1);
  const svc::service_report report = metrics.snapshot();
  const std::string json = report.to_json();
  const auto document = json_parser(json).parse();
  ASSERT_NE(document, nullptr);
  EXPECT_EQ(document->object().count("net"), 0u);
}

}  // namespace
}  // namespace elect
