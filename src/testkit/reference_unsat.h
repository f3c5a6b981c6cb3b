#ifndef OLITE_TESTKIT_REFERENCE_UNSAT_H_
#define OLITE_TESTKIT_REFERENCE_UNSAT_H_

#include <vector>

#include "core/tbox_graph.h"
#include "graph/closure.h"

namespace olite::testkit {

/// Reference `computeUnsat`, written directly from the rules and
/// deliberately independent of `core::ComputeUnsat`'s bitset pass: it reads
/// materialised closures instead of SCC bitsets. Each negative inclusion
/// intersects the two sides' predecessor sets; each qualified existential
/// `B ⊑ ∃Q.A` collects the up-closures of A, ∃Q⁻ and ∃r⁻ for every
/// super-role r of Q; the fixpoint marks `reverse.ReachableFrom(x)` for
/// every unsatisfiable x. Quadratic-ish — the tests and `CompareClassifiers`
/// compare the production pass against it on every node.
std::vector<bool> ReferenceUnsat(const core::TBoxGraph& g,
                                 const graph::TransitiveClosure& forward,
                                 const graph::TransitiveClosure& reverse);

}  // namespace olite::testkit

#endif  // OLITE_TESTKIT_REFERENCE_UNSAT_H_
