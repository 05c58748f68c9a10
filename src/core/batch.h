// Set-algebra execution for served check-only jobs.
//
// The service answers every pure-check dispatch unit here: a lone job or a
// coalesced group of jobs against the same (snapshot version, scope,
// entering traffic) — i.e. the same PlanBundle. Running each through its
// own engine repays the fixed costs (SMT context, session compile,
// first-query warmup) once per job; this module amortizes them once per
// *version* instead. The per-(obligation, path) before-side
// permitted sets are precomputed against the base configuration (they do
// not depend on any job's update), and each job then only re-walks its
// *after* side with net::permitted_within, clipped to the obligation's FEC.
// An obligation is violated iff some feasible path's clipped permitted set
// differs between the two sides — the exact header-space dual of the
// checker's Equation 3 query (no control intents, which coalescing
// excludes), so the verdict is identical to a fresh Checker::check.
//
// Sharding: obligations are partitioned by entry interface (the plan's
// per-gateway structure; round-robin in global-FEC mode) and the batch is
// fanned out over the shared core::Executor as (job × shard) tasks. A
// per-job atomic minimum over violated obligation indices makes the
// stop_at_first answer deterministic regardless of scheduling — any
// violation at an index below the final minimum would itself have been
// scanned and lowered the minimum — and the reported witness is re-derived
// canonically (first feasible path, first changed-region sample) at that
// minimal obligation after the fan-out completes.
//
// Cancellation and deadlines are cooperative and per-job: every shard
// polls the job's probes between obligations, so a cancelled or expired
// job's remaining obligations are dropped without perturbing batchmates.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/checker.h"
#include "core/executor.h"
#include "core/plan.h"
#include "topo/topology.h"

namespace jinjing::core {

/// The per-version precomputation shared by every job of a batch: for each
/// obligation, the FEC-clipped permitted set of each of its feasible paths
/// under the base (pre-update) configuration.
struct BatchAlgebra {
  std::shared_ptr<const PlanBundle> bundle;
  /// before[i][k]: packets of obligation i's class permitted along its k-th
  /// feasible path (paths[obligations()[i].paths[k]]) with no update.
  std::vector<std::vector<net::PacketSet>> before;
  double build_seconds = 0;
};

/// Builds the before-side sets for `bundle` against `topo`'s base ACLs.
/// The obligations are independent, so with an `executor` their sets are
/// built in parallel (one task per obligation); nullptr builds inline.
[[nodiscard]] BatchAlgebra build_batch_algebra(const topo::Topology& topo,
                                               std::shared_ptr<const PlanBundle> bundle,
                                               Executor* executor = nullptr);

/// One job of a coalesced batch.
struct BatchItem {
  const topo::AclUpdate* update = nullptr;
  /// Cooperative cancellation probe, polled between obligations; may be
  /// empty (never cancelled).
  std::function<bool()> cancelled;
  /// Deadline probe, polled between obligations; true = budget exhausted.
  /// May be empty (no deadline).
  std::function<bool()> expired;
};

/// Per-job result of a batch run.
struct BatchOutcome {
  CheckResult result;
  /// Obligations proven consistent under the job's update (touches() ==
  /// false, or scanned without a differing path set).
  std::vector<bool> clean;
  bool cancelled = false;
  bool deadline_expired = false;
};

struct BatchRunOptions {
  /// Report only the minimal violated obligation (the check behaviour).
  bool stop_at_first = true;
  /// Shared pool the (job × shard) tasks run on; nullptr = inline on the
  /// calling thread.
  Executor* executor = nullptr;
  /// Upper bound on obligation shards (per-entry groups are merged
  /// round-robin beyond it).
  std::size_t max_shards = 8;
};

/// Checks every item's update against the precomputed algebra. Outcomes
/// come back in item order; each is equal (verdict, minimal violated
/// obligation, canonical witness) to a fresh single-job check of the same
/// update at the same snapshot.
[[nodiscard]] std::vector<BatchOutcome> run_check_batch(const topo::Topology& topo,
                                                        const BatchAlgebra& algebra,
                                                        const std::vector<BatchItem>& items,
                                                        const BatchRunOptions& options = {});

}  // namespace jinjing::core
