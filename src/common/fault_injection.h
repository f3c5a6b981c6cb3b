#ifndef OLITE_COMMON_FAULT_INJECTION_H_
#define OLITE_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/status.h"

namespace olite::fault {

/// Instrumented boundaries where faults can be injected.
enum class Site : int {
  kRdbExecute = 0,  ///< per select block inside rdb::Execute
  kUnfold,          ///< per disjunct inside obda::Unfold
  kSnapshotBuild,   ///< per CompiledOntology::Compile (hot-swap builds)
  kAdmission,       ///< per admission attempt in obda::ServingEngine
};

/// Canonical lower-case name of `site` (e.g. "rdb_execute").
const char* SiteName(Site site);

/// What to inject at one site. Hits at a site are numbered from 1; the
/// plan is deterministic: hit k fails iff `fail_every > 0 && k %
/// fail_every == 0`, and sleeps `latency_ms` iff `latency_every > 0 && k %
/// latency_every == 0`. With `seed != 0` the failing hits are instead
/// chosen by a seeded xorshift draw with probability `fail_every` in
/// 1/1024ths — still reproducible run-to-run for a fixed seed.
struct FaultPlan {
  uint64_t fail_every = 0;     ///< 0 = never fail
  StatusCode fail_code = StatusCode::kInternal;
  uint64_t latency_every = 0;  ///< 0 = never delay
  double latency_ms = 0;
  uint64_t seed = 0;           ///< 0 = modular plan, else seeded draws
};

/// A process-wide, test-only fault injector. Always compiled in; the
/// disarmed fast path is a single relaxed atomic load, so production
/// paths pay (almost) nothing. Tests arm a site, run the pipeline, and
/// disarm in teardown:
///
/// ```
///   fault::Injector::Global().Arm(fault::Site::kRdbExecute,
///                                 {.fail_every = 2});
///   ... every 2nd rdb block evaluation now returns kInternal ...
///   fault::Injector::Global().DisarmAll();
/// ```
class Injector {
 public:
  /// Number of `Site` values; sites are numbered `0 .. kNumSites - 1`.
  static constexpr int kNumSites = static_cast<int>(Site::kAdmission) + 1;

  static Injector& Global();

  /// Arms `site` with `plan` and resets its hit counter.
  void Arm(Site site, const FaultPlan& plan);

  /// Disarms `site` (its hit counter keeps counting).
  void Disarm(Site site);

  /// Disarms every site and resets all hit counters.
  void DisarmAll();

  /// Called by instrumented code at `site`: counts the hit, injects the
  /// planned latency, and returns the planned failure (or Ok). Callers
  /// propagate a non-OK status as if the underlying operation failed.
  Status OnSite(Site site);

  /// Hits observed at `site` since the last Arm/DisarmAll.
  uint64_t hits(Site site) const {
    return sites_[static_cast<int>(site)].hits.load(
        std::memory_order_relaxed);
  }

  /// Failures injected at `site` since the last Arm/DisarmAll.
  uint64_t failures(Site site) const {
    return sites_[static_cast<int>(site)].failures.load(
        std::memory_order_relaxed);
  }

 private:
  struct SiteState {
    std::atomic<bool> armed{false};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> failures{0};
    FaultPlan plan;  // guarded by mu_; read only while armed
  };

  Injector() = default;

  std::mutex mu_;
  SiteState sites_[kNumSites];
};

/// Convenience: the global injector's OnSite (the one-liner instrumented
/// code calls).
inline Status InjectAt(Site site) { return Injector::Global().OnSite(site); }

}  // namespace olite::fault

#endif  // OLITE_COMMON_FAULT_INJECTION_H_
