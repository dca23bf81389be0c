#include "mt/cluster.hpp"

#include <atomic>

namespace elect::mt {

/// Concurrent transport: pushes messages into target mailboxes. In
/// batching mode a send is staged in a per-(sender, destination) bucket
/// and the sender's thread flushes all buckets between computation steps,
/// so the k messages one step produces for a destination cost one lock
/// acquisition and one wakeup instead of k.
class cluster::transport_impl final : public engine::transport {
 public:
  transport_impl(cluster& owner, int n, bool batching)
      : owner_(owner), batching_(batching) {
    if (batching_) {
      buckets_.resize(static_cast<std::size_t>(n));
      for (auto& row : buckets_) row.resize(static_cast<std::size_t>(n));
    }
  }

  void send(engine::message m) override {
    messages_.fetch_add(1, std::memory_order_relaxed);
    const auto to = static_cast<std::size_t>(m.to);
    ELECT_CHECK(to < owner_.mailboxes_.size());
    if (!batching_) {
      pushes_.fetch_add(1, std::memory_order_relaxed);
      owner_.mailboxes_[to]->push(std::move(m));
      return;
    }
    const auto from = static_cast<std::size_t>(m.from);
    ELECT_CHECK(from < buckets_.size());
    buckets_[from][to].push_back(std::move(m));
  }

  /// Deliver everything `pid` staged since its last flush. Only pid's own
  /// thread may call this (the bucket row is single-writer).
  void flush(process_id pid) {
    if (!batching_) return;
    auto& row = buckets_[static_cast<std::size_t>(pid)];
    for (std::size_t to = 0; to < row.size(); ++to) {
      if (row[to].empty()) continue;
      pushes_.fetch_add(1, std::memory_order_relaxed);
      owner_.mailboxes_[to]->push_batch(row[to]);
    }
  }

  [[nodiscard]] std::uint64_t total_messages() const noexcept {
    return messages_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t total_pushes() const noexcept {
    return pushes_.load(std::memory_order_relaxed);
  }

 private:
  cluster& owner_;
  bool batching_;
  /// buckets_[from][to]: messages staged by `from` for `to`.
  std::vector<std::vector<std::vector<engine::message>>> buckets_;
  std::atomic<std::uint64_t> messages_{0};
  std::atomic<std::uint64_t> pushes_{0};
};

cluster::cluster(int n, std::uint64_t seed, cluster_options options)
    : n_(n),
      seed_(seed),
      options_(options),
      metrics_(n),
      transport_(std::make_unique<transport_impl>(*this, n,
                                                  options.batch_transport)),
      factories_(static_cast<std::size_t>(n)),
      results_(static_cast<std::size_t>(n), -1),
      attached_(static_cast<std::size_t>(n), false) {
  ELECT_CHECK(n >= 1);
  mailboxes_.reserve(static_cast<std::size_t>(n));
  nodes_.reserve(static_cast<std::size_t>(n));
  for (process_id pid = 0; pid < n; ++pid) {
    mailboxes_.push_back(std::make_unique<mailbox>());
    nodes_.push_back(std::make_unique<engine::node>(
        pid, n, *transport_,
        rng_stream(seed, {0x6c7aULL, static_cast<std::uint64_t>(pid)}),
        metrics_));
  }
}

cluster::~cluster() {
  for (auto& mb : mailboxes_) mb->stop();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

void cluster::attach(process_id pid, protocol_factory factory) {
  ELECT_CHECK(!started_);
  ELECT_CHECK(pid >= 0 && pid < n_);
  ELECT_CHECK(factory != nullptr);
  const auto index = static_cast<std::size_t>(pid);
  ELECT_CHECK(!attached_[index]);
  factories_[index] = std::move(factory);
  attached_[index] = true;
  pending_protocols_++;
}

void cluster::start() {
  ELECT_CHECK(!started_);
  started_ = true;
  threads_.reserve(static_cast<std::size_t>(n_));
  for (process_id pid = 0; pid < n_; ++pid) {
    threads_.emplace_back([this, pid] { thread_main(pid); });
  }
}

void cluster::thread_main(process_id pid) {
  const auto index = static_cast<std::size_t>(pid);
  engine::node& node = *nodes_[index];
  mailbox& mb = *mailboxes_[index];

  if (attached_[index]) {
    node.attach_protocol(factories_[index](node));
    node.computation_step();  // invoke the protocol (sends first requests)
  }
  transport_->flush(pid);
  bool reported = false;
  const auto report_if_done = [&] {
    if (!reported && attached_[index] && node.protocol_done()) {
      reported = true;
      {
        const std::lock_guard<std::mutex> lock(done_mutex_);
        results_[index] = node.protocol_result();
        pending_protocols_--;
      }
      all_done_.notify_all();
    }
  };
  report_if_done();

  std::deque<engine::message> batch;
  for (;;) {
    batch.clear();
    if (!mb.drain_blocking(batch)) break;  // stopped and empty
    for (engine::message& m : batch) node.deliver(std::move(m));
    node.computation_step();
    transport_->flush(pid);  // everything this step staged goes out
    report_if_done();
  }
}

void cluster::wait() {
  ELECT_CHECK(started_);
  {
    std::unique_lock<std::mutex> lock(done_mutex_);
    all_done_.wait(lock, [&] { return pending_protocols_ == 0; });
  }
  // All protocols returned; tear the service layer down.
  for (auto& mb : mailboxes_) mb->stop();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

std::int64_t cluster::result_of(process_id pid) const {
  ELECT_CHECK(pid >= 0 && pid < n_);
  const auto index = static_cast<std::size_t>(pid);
  ELECT_CHECK_MSG(attached_[index], "no protocol attached");
  return results_[index];
}

const engine::debug_probe& cluster::probe(process_id pid) const {
  ELECT_CHECK(pid >= 0 && pid < n_);
  return nodes_[static_cast<std::size_t>(pid)]->probe();
}

std::uint64_t cluster::total_messages() const noexcept {
  return transport_->total_messages();
}

std::uint64_t cluster::total_mailbox_pushes() const noexcept {
  return transport_->total_pushes();
}

}  // namespace elect::mt
