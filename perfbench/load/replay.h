// The traced replay: re-runs the first rounds of a workload in-process and
// times, with one benchmark-side span each, the calls into every layer's
// public functions that a served job makes. Spans are kept in memory and
// written as a Chrome trace when the replay ends.
#pragma once

#include <string>

#include "svc/json.h"

namespace jinjing::perfbench {

struct ReplayConfig {
  std::string workload;
  unsigned seed = 1;
  /// Coalesced unit size to replay check batches at (the served run's
  /// mean batch size); 1 replays lone checks.
  std::size_t unit = 1;
  std::string trace_path;
};

/// Per-layer self times: {"layers": {name: {"ms": total, "calls": n,
/// "per": ops the total is divided by}}, "wall_s": ...}.
[[nodiscard]] svc::Json run_replay(const ReplayConfig& config);

}  // namespace jinjing::perfbench
