// The correctness gate, run after the timed window: every kept answer is
// re-derived by an engine that did not serve it, on the pinned snapshot.
//
//   pure check, coalesced (check_flood)  -> SMT core::Checker
//   pure check, lone                     -> core::run_check_batch
//   control check, generate              -> fresh single-threaded core::Engine,
//                                           verdicts and plan text bit-for-bit
//   fix                                  -> the returned plan, re-checked by
//                                           core::run_check_batch, must be
//                                           consistent
#pragma once

#include <string>
#include <vector>

#include "serve.h"

namespace jinjing::perfbench {

struct OracleReport {
  std::size_t checked[kOpKinds] = {};
  std::size_t mismatches = 0;
  std::vector<std::string> failures;  // first few
  double seconds = 0;
};

[[nodiscard]] OracleReport run_oracle(const WorkloadSpec& spec, const ServedRun& run);

}  // namespace jinjing::perfbench
