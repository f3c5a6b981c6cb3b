#ifndef OLITE_TESTKIT_REFERENCE_EVAL_H_
#define OLITE_TESTKIT_REFERENCE_EVAL_H_

#include <vector>

#include "common/result.h"
#include "obda/answer.h"
#include "obda/compiled_ontology.h"
#include "query/cq.h"
#include "rdb/query.h"
#include "rdb/table.h"

namespace olite::testkit {

/// Reference evaluator for the rdb query class (a union of
/// select-project-join blocks under set semantics), deliberately
/// independent of `rdb::Execute`: names are resolved here, and each block
/// is a row-at-a-time, left-deep nested-loop join in written FROM order
/// that checks every join and filter as soon as its references are bound.
/// No budget, statistics or fault sites — the tests and `bench_eval`
/// compare the production columnar evaluator against it. Returns distinct
/// rows in sorted order (the same contract as `rdb::Execute`).
Result<std::vector<rdb::Row>> EvalReference(const rdb::Database& db,
                                            const rdb::SqlQuery& query);

/// The SQL union the OBDA pipeline executes for `cq` on `compiled`: the
/// snapshot's rewriter (constraint pruning on, no budget) followed by
/// constraint-aware unfolding — exactly the plan `QueryEngine::Answer`
/// prepares on a cold call. kNotFound for an empty unfolding (no mapped
/// disjunct; the certain answers are empty).
Result<rdb::SqlQuery> UnfoldToSql(const obda::CompiledOntology& compiled,
                                  const query::ConjunctiveQuery& cq);

/// Answers of `cq` on `compiled` through the reference evaluator:
/// `UnfoldToSql` then `EvalReference`, each value rendered with
/// `Value::ToName` as `QueryEngine::Answer` renders it. Empty for an empty
/// unfolding.
Result<std::vector<obda::AnswerTuple>> ReferenceAnswers(
    const obda::CompiledOntology& compiled, const query::ConjunctiveQuery& cq);

}  // namespace olite::testkit

#endif  // OLITE_TESTKIT_REFERENCE_EVAL_H_
