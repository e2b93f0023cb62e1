#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "trace/component.hpp"

namespace prdma::stats {

/// Accumulates latency components across many operations — used to
/// regenerate the paper's Fig. 20 (sender software / network RTT /
/// receiver software breakdown).
///
/// Keyed by trace::ComponentId, the same interned handles the tracer
/// records spans under, so the hot path never hashes strings. Names
/// outside the shared predefined component table get per-instance
/// dynamic ids through intern().
class SpanBreakdown {
 public:
  using ComponentId = trace::ComponentId;

  void add(ComponentId id, std::uint64_t ns) { add_total(id, ns, 1); }
  void add(trace::Component c, std::uint64_t ns) { add(trace::to_id(c), ns); }

  /// Folds a pre-aggregated component total in (e.g. a Tracer slot).
  void add_total(ComponentId id, std::uint64_t total_ns,
                 std::uint64_t samples) {
    auto& slot = slots_[id];
    slot.total_ns += total_ns;
    slot.samples += samples;
  }

  /// Returns the id `name` maps to in this breakdown, interning a
  /// dynamic id (first-use order) when it is not a predefined
  /// component. Deterministic per instance.
  ComponentId intern(std::string_view name) {
    if (const auto c = trace::component_from_name(name)) {
      return trace::to_id(*c);
    }
    for (std::size_t i = 0; i < dynamic_.size(); ++i) {
      if (dynamic_[i] == name) {
        return static_cast<ComponentId>(trace::kPredefinedComponents + i);
      }
    }
    dynamic_.emplace_back(name);
    return static_cast<ComponentId>(trace::kPredefinedComponents +
                                    dynamic_.size() - 1);
  }

  // ---- queries ----

  /// Mean nanoseconds per *operation*, where ops is the divisor (an
  /// operation can contribute several spans of one component).
  [[nodiscard]] double mean_ns(ComponentId id, std::uint64_t ops) const {
    const auto it = slots_.find(id);
    if (it == slots_.end() || ops == 0) return 0.0;
    return static_cast<double>(it->second.total_ns) / static_cast<double>(ops);
  }
  [[nodiscard]] double mean_ns(trace::Component c, std::uint64_t ops) const {
    return mean_ns(trace::to_id(c), ops);
  }

  [[nodiscard]] std::uint64_t total_ns() const {
    std::uint64_t t = 0;
    for (const auto& [id, slot] : slots_) t += slot.total_ns;
    return t;
  }

  [[nodiscard]] std::uint64_t samples(ComponentId id) const {
    const auto it = slots_.find(id);
    return it == slots_.end() ? 0 : it->second.samples;
  }

  /// Records folded in across every component (spans + counter samples).
  [[nodiscard]] std::uint64_t total_samples() const {
    std::uint64_t n = 0;
    for (const auto& [id, slot] : slots_) n += slot.samples;
    return n;
  }

  /// Fraction of the total contributed by `id`, in [0,1].
  [[nodiscard]] double share(ComponentId id) const {
    const std::uint64_t t = total_ns();
    if (t == 0) return 0.0;
    const auto it = slots_.find(id);
    if (it == slots_.end()) return 0.0;
    return static_cast<double>(it->second.total_ns) / static_cast<double>(t);
  }
  [[nodiscard]] double share(trace::Component c) const {
    return share(trace::to_id(c));
  }

  [[nodiscard]] std::string_view name_of(ComponentId id) const {
    if (id < trace::kPredefinedComponents) return trace::component_name(id);
    const std::size_t idx = id - trace::kPredefinedComponents;
    return idx < dynamic_.size() ? std::string_view(dynamic_[idx])
                                 : std::string_view("?");
  }

  /// Every populated component, sorted by name (the historical
  /// std::map<string> iteration order).
  [[nodiscard]] std::vector<ComponentId> components() const {
    std::vector<ComponentId> ids;
    ids.reserve(slots_.size());
    for (const auto& [id, slot] : slots_) ids.push_back(id);
    std::sort(ids.begin(), ids.end(), [this](ComponentId a, ComponentId b) {
      return name_of(a) < name_of(b);
    });
    return ids;
  }

  void merge(const SpanBreakdown& o) {
    for (const auto& [id, slot] : o.slots_) {
      // Dynamic ids are per-instance: remap through the name so two
      // breakdowns that interned in different orders still merge right.
      const ComponentId mine =
          id < trace::kPredefinedComponents
              ? id
              : intern(std::string(o.name_of(id)));
      add_total(mine, slot.total_ns, slot.samples);
    }
  }

  void reset() {
    slots_.clear();
    dynamic_.clear();
  }

 private:
  struct Slot {
    std::uint64_t total_ns = 0;
    std::uint64_t samples = 0;
  };

  std::map<ComponentId, Slot> slots_;
  std::vector<std::string> dynamic_;
};

}  // namespace prdma::stats
