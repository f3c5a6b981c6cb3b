// Conformance sweep harness (nightly CI entry point): drives the
// differential testkit (classifiers plus every answer leg of
// testkit::CompareAnswers) over a window of freshly seeded
// testkit::SweepConfig workloads through the shared testkit::RunSweep
// loop and emits a machine-readable summary. Any seed whose engines
// disagree is ddmin-shrunk on the spot and the minimised repro written
// next to the summary, so a red nightly run ships its own bug report.
//
// Flags: --seeds=<n>          workloads to sweep          (default 200)
//        --seed-base=<n>      first seed                  (default 0)
//        --tableau-every=<n>  run the (exponential) tableau on every
//                             n-th seed; 0 = never        (default 8)
//        --shrink-dir=<path>  where shrunk repros go      (default .)
//        --out=<path>         summary (default BENCH_conformance.json)
//
// The JSON output is one object:
//   {"seeds_checked", "seed_base", "classifier_pairs_compared"
//    (testkit::ClassifierTally::pairs), "tableau_timeouts" (scheduled
//    tableau runs that hit their budget and were not compared),
//    "answer_pairs_compared" (answer legs checked against the chase
//    oracle), "discrepancies_found", "shrink_iterations",
//    "repros": [{"seed", "path", "first_diff"}], "elapsed_ms"}

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/stopwatch.h"
#include "testkit/sweep.h"

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seeds = 200;
  uint64_t seed_base = 0;
  uint64_t tableau_every = 8;
  std::string shrink_dir = ".";
  std::string out_path = "BENCH_conformance.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--seeds=", 8) == 0) {
      seeds = std::strtoull(argv[i] + 8, nullptr, 10);
    } else if (std::strncmp(argv[i], "--seed-base=", 12) == 0) {
      seed_base = std::strtoull(argv[i] + 12, nullptr, 10);
    } else if (std::strncmp(argv[i], "--tableau-every=", 16) == 0) {
      tableau_every = std::strtoull(argv[i] + 16, nullptr, 10);
    } else if (std::strncmp(argv[i], "--shrink-dir=", 13) == 0) {
      shrink_dir = argv[i] + 13;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 1;
    }
  }

  olite::testkit::ClassifierTally classifier_tally;
  olite::testkit::AnswerTally answer_tally;
  uint64_t discrepancies = 0;
  uint64_t shrink_iterations = 0;
  olite::Stopwatch watch;

  // RunSweep re-runs the checker on shrink candidates of a failing seed;
  // only the first (full-workload) pass of each seed is counted.
  uint64_t counted_seed = UINT64_MAX;
  auto check = [&](const olite::benchgen::Workload& w, uint64_t seed) {
    const bool counted = seed != counted_seed;
    counted_seed = seed;
    olite::testkit::ClassifierDiffOptions copts;
    copts.run_tableau =
        tableau_every != 0 && (seed - seed_base) % tableau_every == 0;
    if (counted) copts.tally = &classifier_tally;
    std::vector<std::string> diffs =
        olite::testkit::CompareClassifiers(w.ontology, copts);
    olite::testkit::AnswerCheckOptions aopts;
    if (counted) aopts.tally = &answer_tally;
    for (std::string& d : olite::testkit::CompareAnswers(w, aopts)) {
      diffs.push_back(std::move(d));
    }
    return diffs;
  };
  const auto failures = olite::testkit::RunSweep(
      seed_base, seeds, olite::testkit::SweepConfig, check,
      /*max_failures=*/0);

  auto repro_path = [&](uint64_t seed) {
    return shrink_dir + "/repro_seed" + std::to_string(seed) + ".case";
  };
  for (const auto& f : failures) {
    discrepancies += f.diffs.size();
    shrink_iterations += f.shrink.iterations;
    std::ofstream(repro_path(f.seed))
        << "# shrunk from sweep seed " << f.seed << "\n"
        << olite::testkit::SerializeCase(f.repro);
  }

  const double elapsed_ms = watch.ElapsedMillis();
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"seeds_checked\": %llu,\n"
               "  \"seed_base\": %llu,\n"
               "  \"classifier_pairs_compared\": %llu,\n"
               "  \"tableau_timeouts\": %llu,\n"
               "  \"answer_pairs_compared\": %llu,\n"
               "  \"discrepancies_found\": %llu,\n"
               "  \"shrink_iterations\": %llu,\n"
               "  \"repros\": [",
               static_cast<unsigned long long>(seeds),
               static_cast<unsigned long long>(seed_base),
               static_cast<unsigned long long>(classifier_tally.pairs),
               static_cast<unsigned long long>(classifier_tally.tableau_timeouts),
               static_cast<unsigned long long>(answer_tally.legs),
               static_cast<unsigned long long>(discrepancies),
               static_cast<unsigned long long>(shrink_iterations));
  for (size_t i = 0; i < failures.size(); ++i) {
    std::fprintf(f,
                 "%s\n    {\"seed\": %llu, \"path\": \"%s\", "
                 "\"first_diff\": \"%s\"}",
                 i > 0 ? "," : "",
                 static_cast<unsigned long long>(failures[i].seed),
                 JsonEscape(repro_path(failures[i].seed)).c_str(),
                 JsonEscape(failures[i].diffs.front()).c_str());
  }
  std::fprintf(f,
               "%s],\n"
               "  \"elapsed_ms\": %.1f\n"
               "}\n",
               failures.empty() ? "" : "\n  ", elapsed_ms);
  std::fclose(f);
  std::printf("checked %llu seeds (%llu classifier pairs, %llu tableau "
              "timeouts, %llu answer pairs): %llu discrepancies, %zu shrunk "
              "repros; wrote %s\n",
              static_cast<unsigned long long>(seeds),
              static_cast<unsigned long long>(classifier_tally.pairs),
              static_cast<unsigned long long>(classifier_tally.tableau_timeouts),
              static_cast<unsigned long long>(answer_tally.legs),
              static_cast<unsigned long long>(discrepancies), failures.size(),
              out_path.c_str());
  return discrepancies == 0 ? 0 : 2;
}
