// The served run: boots `jinjing serve` as its own process, drives it with
// a closed-loop client over its Unix socket, and records per-op latencies,
// exact wire bytes, the server's `metrics` text around the timed window,
// and the answers the correctness oracle re-verifies afterwards.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ops.h"

namespace jinjing::perfbench {

struct RunConfig {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10;
  std::string jinjing;     // path of the jinjing binary
};

/// One answered job, kept for the oracle.
struct Record {
  Op op;
  std::size_t round = 0;
  std::uint64_t snapshot = 0;  // version the server pinned at submit
  bool success = false;
  std::vector<bool> consistent;  // per check command
  std::string plan;
};

struct ServedRun {
  std::vector<std::string> server_flags;
  std::vector<double> setup_seconds;
  double window_seconds = 0;
  std::size_t rounds = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  // first few, for the report
  std::vector<double> latency_ms[kOpKinds];
  std::uint64_t check_request_bytes = 0;   // submit + result lines of pure checks
  std::uint64_t check_response_bytes = 0;
  std::uint64_t checks_on_wire = 0;
  std::uint64_t peak_rss_kb = 0;  // server VmHWM when the round floor is reached
  double server_cpu_seconds = 0;  // over the timed window
  std::string metrics_before;
  std::string metrics_after;
  std::vector<std::string> op_lines;  // describe() of the first rounds
  std::vector<Record> records;        // the oracle's inputs
  /// Every apply, warm-up included: the version it created and the
  /// candidate op whose update it deployed.
  std::map<std::uint64_t, Op> applied;
  std::string network_text;           // the file the server loaded
};

/// Rounds whose op descriptions form the op-list fingerprint.
inline constexpr std::size_t kFingerprintRounds = 16;

[[nodiscard]] ServedRun run_served(const RunConfig& config);

}  // namespace jinjing::perfbench
