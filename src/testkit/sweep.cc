#include "testkit/sweep.h"

#include <cstdio>
#include <sstream>

namespace olite::testkit {

benchgen::WorkloadConfig SweepConfig(uint64_t seed) {
  benchgen::WorkloadConfig cfg;
  cfg.ontology.name = "conformance";
  cfg.ontology.seed = 2 * seed + 1;
  cfg.ontology.num_concepts = 12 + static_cast<uint32_t>(seed % 14);
  cfg.ontology.num_roles = 3 + static_cast<uint32_t>(seed % 3);
  cfg.ontology.num_attributes = static_cast<uint32_t>(seed % 2);
  cfg.ontology.num_roots = 2;
  cfg.ontology.avg_branching = 2.0 + static_cast<double>(seed % 3);
  cfg.ontology.multi_parent_prob = 0.2;
  cfg.ontology.role_hierarchy_fraction = 0.5;
  cfg.ontology.domain_range_fraction = 0.3;
  cfg.ontology.qualified_exists_per_concept = 0.2;
  cfg.ontology.unqualified_exists_per_concept = 0.2;
  cfg.ontology.disjointness_fraction = 0.2;
  cfg.ontology.role_disjointness_fraction = 0.1;
  cfg.seed = seed + 1000;
  cfg.num_individuals = 16;
  cfg.num_concept_assertions = 24;
  cfg.num_role_assertions = 24;
  cfg.num_attribute_assertions = (seed % 2 == 1) ? 6 : 0;
  cfg.num_queries = 3;
  cfg.max_atoms_per_query = 3;
  return cfg;
}

benchgen::WorkloadConfig PruningSweepConfig(uint64_t seed) {
  benchgen::WorkloadConfig cfg = SweepConfig(seed);
  cfg.redundant_mapping_fraction = 0.5;
  cfg.source_inclusion_fraction = 0.5;
  return cfg;
}

DeltaCompileOptions DeltaSweepOptions(uint64_t seed) {
  DeltaCompileOptions opts;
  opts.sequence.seed = seed ^ 0xDE17A5EEDULL;
  opts.sequence.num_deltas = 6;
  opts.sequence.functionality_fraction = (seed % 4 == 0) ? 0.15 : 0.0;
  if (seed % 8 == 3) {
    // Planted last so the fallback path is swept without every later
    // generation inheriting (and re-paying for) the densified closure.
    opts.sequence.large_delta_index = 5;
    opts.sequence.large_delta_changes = 24;
  }
  opts.mode = (seed % 3 == 0) ? query::RewriteMode::kPerfectRef
                              : query::RewriteMode::kClassified;
  return opts;
}

std::string SweepFailure::Report(const std::string& name) const {
  std::ostringstream os;
  os << diffs.size() << " discrepancies at seed " << seed << ":";
  for (const auto& d : diffs) os << "\n  " << d;
  os << "\nshrunk repro (save as tests/corpus/" << name << "_seed" << seed
     << ".case):\n"
     << SerializeCase(repro);
  return os.str();
}

std::vector<SweepFailure> RunSweep(
    uint64_t base, uint64_t count,
    const std::function<benchgen::WorkloadConfig(uint64_t)>& config,
    const SeedCheck& check, size_t max_failures) {
  std::vector<SweepFailure> failures;
  for (uint64_t seed = base; seed < base + count; ++seed) {
    const benchgen::Workload w = benchgen::GenerateWorkload(config(seed));
    std::vector<std::string> diffs = check(w, seed);
    if (diffs.empty()) continue;
    std::fprintf(stderr, "seed %llu: %zu discrepancies; shrinking\n",
                 static_cast<unsigned long long>(seed), diffs.size());

    SweepFailure f;
    f.seed = seed;
    f.diffs = std::move(diffs);
    f.repro = CaseFromWorkload(w);
    f.repro.expect_discrepancy = true;
    auto fails = [&](const ConformanceCase& candidate) {
      return !check(ToWorkload(candidate), seed).empty();
    };
    if (fails(f.repro)) f.repro = Shrink(f.repro, fails, {}, &f.shrink);
    failures.push_back(std::move(f));
    if (failures.size() == max_failures) break;
  }
  return failures;
}

}  // namespace olite::testkit
