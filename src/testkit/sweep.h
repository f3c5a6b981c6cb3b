#ifndef OLITE_TESTKIT_SWEEP_H_
#define OLITE_TESTKIT_SWEEP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "benchgen/workload.h"
#include "testkit/corpus.h"
#include "testkit/differential.h"
#include "testkit/shrinker.h"

namespace olite::testkit {

/// Seed-varied small workloads: big enough to exercise joins, shared
/// tables, unmapped predicates and existential axioms; small enough that
/// a few hundred of them (plus a tableau run every 8th) stay well inside
/// tier-1. The tier-1 sweeps and `bench_conformance` both use it.
benchgen::WorkloadConfig SweepConfig(uint64_t seed);

/// Constraint-rich variant of `SweepConfig`: redundant duplicate mappings
/// and source-materialised inclusions make constraint pruning fire on most
/// seeds.
benchgen::WorkloadConfig PruningSweepConfig(uint64_t seed);

/// The delta-compilation sweep's options for `seed`: a six-delta chain,
/// functionality churn on every 4th seed, one oversized delta (the
/// scratch-fallback path) on every 8th, and PerfectRef on every 3rd.
DeltaCompileOptions DeltaSweepOptions(uint64_t seed);

/// Checks one seeded workload; returns discrepancy descriptions (empty =
/// agreement). Must be deterministic in (workload, seed): a sweep re-runs
/// it on shrink candidates of a failing seed.
using SeedCheck = std::function<std::vector<std::string>(
    const benchgen::Workload&, uint64_t seed)>;

/// One failing seed of a sweep.
struct SweepFailure {
  uint64_t seed = 0;
  /// The checker's report on the full generated workload.
  std::vector<std::string> diffs;
  /// The ddmin-shrunk case, marked `expect discrepancy` (the unshrunk
  /// case when its corpus round trip no longer fails).
  ConformanceCase repro;
  ShrinkStats shrink;

  /// The diffs, then the repro in corpus format, suggesting the file name
  /// `tests/corpus/<name>_seed<seed>.case`.
  std::string Report(const std::string& name) const;
};

/// Runs `check` on `GenerateWorkload(config(seed))` for every seed of
/// [base, base + count). A failing seed is announced on stderr and
/// ddmin-shrunk with the same checker, seed held fixed. Stops after
/// `max_failures` failing seeds (0 = sweep the whole window).
std::vector<SweepFailure> RunSweep(
    uint64_t base, uint64_t count,
    const std::function<benchgen::WorkloadConfig(uint64_t)>& config,
    const SeedCheck& check, size_t max_failures = 1);

}  // namespace olite::testkit

#endif  // OLITE_TESTKIT_SWEEP_H_
