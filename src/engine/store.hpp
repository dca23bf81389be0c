// Per-processor replicated-variable store.
//
// Each processor keeps a local view of every replicated variable it has
// heard about. Views are joined monotonically (values.hpp); variables are
// created lazily with an all-⊥ default the first time they are touched.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "common/check.hpp"
#include "common/types.hpp"
#include "engine/ids.hpp"
#include "engine/values.hpp"

namespace elect::engine {

class store {
 public:
  explicit store(int n) : n_(n) { ELECT_CHECK(n >= 1); }

  [[nodiscard]] int n() const noexcept { return n_; }

  /// Merge a delta (from a propagate request, or a local write).
  void merge(const var_id& id, const var_delta& delta) {
    merge_delta(vars_[id], delta, n_);
  }

  /// Merge a full snapshot (used by ABD write-back).
  void merge_snapshot(const var_id& id, const var_value& snapshot) {
    merge_value(vars_[id], snapshot, n_);
  }

  /// Current view of a variable; monostate (all ⊥) if never touched.
  [[nodiscard]] var_value snapshot(const var_id& id) const {
    const auto it = vars_.find(id);
    return it == vars_.end() ? var_value{} : it->second;
  }

  /// Pointer to the current view, or nullptr if never touched.
  [[nodiscard]] const var_value* find(const var_id& id) const {
    const auto it = vars_.find(id);
    return it == vars_.end() ? nullptr : &it->second;
  }

  /// Typed view accessor: nullptr if never touched; aborts on a family
  /// mismatch (protocol bug).
  template <typename T>
  [[nodiscard]] const T* view(const var_id& id) const {
    const var_value* value = find(id);
    if (value == nullptr || std::holds_alternative<std::monostate>(*value)) {
      return nullptr;
    }
    const T* typed = std::get_if<T>(value);
    ELECT_CHECK_MSG(typed != nullptr, "store view family mismatch");
    return typed;
  }

  /// Next local-write sequence number for `id` (starts at 1).
  [[nodiscard]] std::uint32_t bump_seq(const var_id& id) {
    return ++seqs_[id];
  }

  [[nodiscard]] std::size_t variable_count() const noexcept {
    return vars_.size();
  }

  /// Forget every variable `doomed(id)` selects, with its write sequence.
  /// Only safe once no message or protocol step can touch them again
  /// (a runtime at quiescence, dropping decided instances).
  template <typename Pred>
  void erase_if(Pred doomed) {
    const auto doomed_entry = [&](const auto& entry) {
      return doomed(entry.first);
    };
    std::erase_if(vars_, doomed_entry);
    std::erase_if(seqs_, doomed_entry);
  }

 private:
  int n_;
  std::unordered_map<var_id, var_value, var_id_hash> vars_;
  std::unordered_map<var_id, std::uint32_t, var_id_hash> seqs_;
};

}  // namespace elect::engine
