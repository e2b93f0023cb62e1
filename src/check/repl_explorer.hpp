#pragma once

// Replicated-exploration preset for the benchmark driver (perfbench/).
// New code uses check::explore with ExplorerConfig::protocol directly.

#include "check/explorer.hpp"

namespace prdma::check {

/// ExplorerConfig with the replicated sweep's defaults: chain at R = 2,
/// 32 ops, window 4, 16 random schedules, 8 boundary points.
struct ReplExplorerConfig : ExplorerConfig {
  ReplExplorerConfig() {
    protocol = repl::Protocol::kChain;
    replicas = 2;
    ops = 32;
    window = 4;
    random_schedules = 16;
    max_boundary_points = 8;
  }
};

using ReplExplorerReport = ExplorerReport;

inline ExplorerReport explore_repl(const ExplorerConfig& cfg) {
  return explore(cfg);
}

}  // namespace prdma::check
