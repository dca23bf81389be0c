#include "svc/watch.hpp"

#include <algorithm>
#include <utility>

namespace elect::svc {

watch_hub::~watch_hub() { stop(); }

void watch_hub::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_) return;
    stopped_ = true;
    dropped_.fetch_add(queue_.size(), std::memory_order_relaxed);
    queue_.clear();
  }
  queue_cv_.notify_all();
  if (notifier_.joinable()) notifier_.join();
}

std::uint64_t watch_hub::add(std::string key, callback fn) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (stopped_) return 0;
  // Events are only queued for watched keys, so the notifier can wait
  // for the first subscription: an unwatched service runs no thread.
  if (!notifier_.joinable()) {
    notifier_ = std::thread([this] { notifier_main(); });
  }
  const std::uint64_t id = next_id_++;
  by_key_[key].push_back(id);
  watchers_.emplace(
      id, watcher{std::move(key), std::make_shared<subscription>(std::move(fn))});
  return id;
}

std::optional<std::string> watch_hub::remove(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = watchers_.find(id);
  if (it == watchers_.end()) return std::nullopt;
  std::string key = std::move(it->second.key);
  const auto by_key = by_key_.find(key);
  if (by_key != by_key_.end()) {
    auto& ids = by_key->second;
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    if (ids.empty()) by_key_.erase(by_key);
  }
  it->second.sub->removed.store(true);
  watchers_.erase(it);
  // The after-remove guarantee: wait out any in-flight delivery to this
  // id, so the caller can destroy callback state the moment we return.
  // The notifier itself (a callback cancelling a subscription) must not
  // wait on its own delivery; `removed` skips the rest of the event.
  if (std::this_thread::get_id() != notifier_.get_id()) {
    delivered_cv_.wait(lock, [&] {
      return std::find(delivering_.begin(), delivering_.end(), id) ==
             delivering_.end();
    });
  }
  return key;
}

void watch_hub::set_drop_hook(std::function<void(const std::string&)> fn) {
  const std::lock_guard<std::mutex> lock(mutex_);
  drop_hook_ = std::move(fn);
}

void watch_hub::publish(const std::string& key, std::uint64_t epoch,
                        transition kind, int session) {
  bool dropped = false;
  bool notify = false;
  std::function<void(const std::string&)> drop_hook;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_ || by_key_.find(key) == by_key_.end()) return;
    if (queue_.size() >= max_queued_events) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      dropped = true;
      drop_hook = drop_hook_;
    } else {
      // The notifier only sleeps on an empty queue, so only the
      // empty→non-empty edge needs a wakeup; a publisher appending to a
      // backlog skips the notify (and its futex syscall) entirely.
      notify = queue_.empty();
      queue_.push_back(watch_event{key, epoch, kind, session});
      published_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (dropped) {
    // Hook runs outside the mutex: it appends to the journal, which must
    // never serialize against delivery or other publishers.
    if (drop_hook) drop_hook(key);
    return;
  }
  if (notify) queue_cv_.notify_one();
}

void watch_hub::notifier_main() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    queue_cv_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
    if (stopped_) return;
    watch_event event = std::move(queue_.front());
    queue_.pop_front();
    // Snapshot the matching callbacks (refcount bumps, not function
    // copies); invoke outside the mutex so a callback can publish,
    // subscribe, or call back into the service.
    std::vector<std::shared_ptr<subscription>> targets;
    const auto by_key = by_key_.find(event.key);
    if (by_key != by_key_.end()) {
      targets.reserve(by_key->second.size());
      for (const std::uint64_t id : by_key->second) {
        targets.push_back(watchers_.at(id).sub);
        delivering_.push_back(id);
      }
    }
    if (targets.empty()) continue;
    lock.unlock();
    std::uint64_t delivered = 0;
    for (const auto& sub : targets) {
      if (sub->removed.load()) continue;  // cancelled mid-event
      sub->fn(event);
      ++delivered;
    }
    delivered_.fetch_add(delivered, std::memory_order_relaxed);
    lock.lock();
    delivering_.clear();
    delivered_cv_.notify_all();
  }
}

watch_report watch_hub::report() const {
  watch_report r;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    r.active = watchers_.size();
  }
  r.published = published_.load(std::memory_order_relaxed);
  r.delivered = delivered_.load(std::memory_order_relaxed);
  r.dropped = dropped_.load(std::memory_order_relaxed);
  return r;
}

}  // namespace elect::svc
