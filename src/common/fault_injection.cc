#include "common/fault_injection.h"

#include <chrono>
#include <string>
#include <thread>

namespace olite::fault {

namespace {

// Stateless splittable draw: deterministic for a fixed (seed, hit) pair,
// so seeded plans replay identically regardless of interleaving.
uint64_t Mix(uint64_t seed, uint64_t hit) {
  uint64_t z = seed + hit * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

const char* SiteName(Site site) {
  switch (site) {
    case Site::kRdbExecute: return "rdb_execute";
    case Site::kUnfold: return "unfold";
    case Site::kSnapshotBuild: return "snapshot_build";
    case Site::kAdmission: return "admission";
  }
  return "unknown";
}

Injector& Injector::Global() {
  static Injector* injector = new Injector();
  return *injector;
}

void Injector::Arm(Site site, const FaultPlan& plan) {
  SiteState& s = sites_[static_cast<int>(site)];
  std::lock_guard<std::mutex> lock(mu_);
  s.armed.store(false, std::memory_order_release);
  s.plan = plan;
  s.hits.store(0, std::memory_order_relaxed);
  s.failures.store(0, std::memory_order_relaxed);
  s.armed.store(true, std::memory_order_release);
}

void Injector::Disarm(Site site) {
  sites_[static_cast<int>(site)].armed.store(false,
                                             std::memory_order_release);
}

void Injector::DisarmAll() {
  for (SiteState& s : sites_) {
    s.armed.store(false, std::memory_order_release);
    s.hits.store(0, std::memory_order_relaxed);
    s.failures.store(0, std::memory_order_relaxed);
  }
}

Status Injector::OnSite(Site site) {
  SiteState& s = sites_[static_cast<int>(site)];
  if (!s.armed.load(std::memory_order_acquire)) return Status::Ok();
  FaultPlan plan;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!s.armed.load(std::memory_order_relaxed)) return Status::Ok();
    plan = s.plan;
  }
  uint64_t hit = s.hits.fetch_add(1, std::memory_order_relaxed) + 1;

  bool delay;
  bool fail;
  if (plan.seed != 0) {
    delay = plan.latency_every > 0 &&
            Mix(plan.seed, hit) % 1024 < plan.latency_every;
    fail = plan.fail_every > 0 &&
           Mix(plan.seed ^ 0xF00DULL, hit) % 1024 < plan.fail_every;
  } else {
    delay = plan.latency_every > 0 && hit % plan.latency_every == 0;
    fail = plan.fail_every > 0 && hit % plan.fail_every == 0;
  }

  if (delay && plan.latency_ms > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(plan.latency_ms));
  }
  if (fail) {
    s.failures.fetch_add(1, std::memory_order_relaxed);
    return Status(plan.fail_code,
                  std::string("injected fault at ") + SiteName(site) +
                      " (hit " + std::to_string(hit) + ")");
  }
  return Status::Ok();
}

}  // namespace olite::fault
