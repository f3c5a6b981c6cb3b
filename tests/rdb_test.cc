#include <gtest/gtest.h>

#include <algorithm>

#include "rdb/query.h"
#include "rdb/stats.h"
#include "rdb/table.h"
#include "testkit/reference_eval.h"

namespace olite::rdb {
namespace {

Database UniversityDb() {
  Database db;
  EXPECT_TRUE(db.CreateTable({"professor",
                              {{"id", ValueType::kString},
                               {"name", ValueType::kString},
                               {"dept", ValueType::kString}}})
                  .ok());
  EXPECT_TRUE(db.CreateTable({"teaches",
                              {{"prof_id", ValueType::kString},
                               {"course_id", ValueType::kInt}}})
                  .ok());
  EXPECT_TRUE(db.CreateTable({"course",
                              {{"id", ValueType::kInt},
                               {"title", ValueType::kString}}})
                  .ok());
  EXPECT_TRUE(db.Insert("professor", {Value::Str("p1"), Value::Str("Ada"),
                                      Value::Str("CS")})
                  .ok());
  EXPECT_TRUE(db.Insert("professor", {Value::Str("p2"), Value::Str("Alan"),
                                      Value::Str("Math")})
                  .ok());
  EXPECT_TRUE(db.Insert("teaches", {Value::Str("p1"), Value::Int(101)}).ok());
  EXPECT_TRUE(db.Insert("teaches", {Value::Str("p1"), Value::Int(102)}).ok());
  EXPECT_TRUE(db.Insert("teaches", {Value::Str("p2"), Value::Int(201)}).ok());
  EXPECT_TRUE(db.Insert("course", {Value::Int(101), Value::Str("DB")}).ok());
  EXPECT_TRUE(db.Insert("course", {Value::Int(102), Value::Str("AI")}).ok());
  EXPECT_TRUE(db.Insert("course", {Value::Int(201), Value::Str("Logic")}).ok());
  return db;
}

TEST(ValueTest, OrderingAndToString) {
  EXPECT_TRUE(Value::Int(1) < Value::Int(2));
  EXPECT_TRUE(Value::Str("a") < Value::Str("b"));
  EXPECT_EQ(Value::Int(42).ToString(), "42");
  EXPECT_EQ(Value::Str("it's").ToString(), "'it''s'");
  EXPECT_EQ(Value::Str("x").type(), ValueType::kString);
}

TEST(TableTest, SchemaValidationOnInsert) {
  Table t({"t", {{"a", ValueType::kInt}, {"b", ValueType::kString}}});
  EXPECT_TRUE(t.Insert({Value::Int(1), Value::Str("x")}).ok());
  EXPECT_EQ(t.Insert({Value::Int(1)}).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.Insert({Value::Str("x"), Value::Str("y")}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(t.NumRows(), 1u);
}

TEST(DatabaseTest, TableManagement) {
  Database db;
  EXPECT_TRUE(db.CreateTable({"t", {{"a", ValueType::kInt}}}).ok());
  EXPECT_EQ(db.CreateTable({"t", {{"a", ValueType::kInt}}}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db.CreateTable({"", {}}).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(db.HasTable("t"));
  EXPECT_FALSE(db.GetTable("nope").ok());
  EXPECT_EQ(db.Insert("nope", {}).code(), StatusCode::kNotFound);
  EXPECT_NE(db.SchemaToString().find("CREATE TABLE t (a INT);"),
            std::string::npos);
}

TEST(QueryTest, SimpleScanAndFilter) {
  Database db = UniversityDb();
  SqlQuery q;
  SelectBlock b;
  b.from_tables = {"professor"};
  b.select = {{0, "name"}};
  b.filters = {{{0, "dept"}, Value::Str("CS")}};
  q.blocks.push_back(b);
  auto rows = Execute(db, q);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], Value::Str("Ada"));
}

TEST(QueryTest, JoinAcrossTables) {
  Database db = UniversityDb();
  SqlQuery q;
  SelectBlock b;
  b.from_tables = {"professor", "teaches", "course"};
  b.select = {{0, "name"}, {2, "title"}};
  b.joins = {{{0, "id"}, {1, "prof_id"}}, {{1, "course_id"}, {2, "id"}}};
  q.blocks.push_back(b);
  auto rows = Execute(db, q);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->size(), 3u);
}

TEST(QueryTest, UnionDeduplicates) {
  Database db = UniversityDb();
  SqlQuery q;
  SelectBlock b1;
  b1.from_tables = {"professor"};
  b1.select = {{0, "id"}};
  SelectBlock b2 = b1;  // identical block: union must not duplicate
  q.blocks = {b1, b2};
  auto rows = Execute(db, q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST(QueryTest, ArityMismatchAcrossUnionFails) {
  Database db = UniversityDb();
  SqlQuery q;
  SelectBlock b1;
  b1.from_tables = {"professor"};
  b1.select = {{0, "id"}};
  SelectBlock b2;
  b2.from_tables = {"professor"};
  b2.select = {{0, "id"}, {0, "name"}};
  q.blocks = {b1, b2};
  EXPECT_EQ(Execute(db, q).status().code(), StatusCode::kInvalidArgument);
}

TEST(QueryTest, ErrorsOnUnknownTableOrColumn) {
  Database db = UniversityDb();
  SqlQuery q;
  SelectBlock b;
  b.from_tables = {"ghost"};
  b.select = {{0, "id"}};
  q.blocks = {b};
  EXPECT_EQ(Execute(db, q).status().code(), StatusCode::kNotFound);

  SqlQuery q2;
  SelectBlock b2;
  b2.from_tables = {"professor"};
  b2.select = {{0, "ghost_col"}};
  q2.blocks = {b2};
  EXPECT_EQ(Execute(db, q2).status().code(), StatusCode::kNotFound);

  SqlQuery q3;
  SelectBlock b3;
  b3.from_tables = {"professor"};
  b3.select = {{5, "id"}};
  q3.blocks = {b3};
  EXPECT_EQ(Execute(db, q3).status().code(), StatusCode::kOutOfRange);
}

TEST(QueryTest, BooleanQueryYieldsOneEmptyRowWhenNonEmpty) {
  Database db = UniversityDb();
  SqlQuery q;
  SelectBlock b;
  b.from_tables = {"professor"};
  b.filters = {{{0, "dept"}, Value::Str("CS")}};
  q.blocks = {b};
  auto rows = Execute(db, q);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 1u);
  EXPECT_TRUE((*rows)[0].empty());

  SqlQuery q2 = q;
  q2.blocks[0].filters[0].value = Value::Str("Philosophy");
  auto rows2 = Execute(db, q2);
  ASSERT_TRUE(rows2.ok());
  EXPECT_TRUE(rows2->empty());
}

TEST(QueryTest, SelfJoinWithTwoAliases) {
  Database db = UniversityDb();
  // Professors sharing a department: professor t0, professor t1.
  SqlQuery q;
  SelectBlock b;
  b.from_tables = {"professor", "professor"};
  b.select = {{0, "name"}, {1, "name"}};
  b.joins = {{{0, "dept"}, {1, "dept"}}};
  q.blocks = {b};
  auto rows = Execute(db, q);
  ASSERT_TRUE(rows.ok());
  // (Ada,Ada), (Alan,Alan) — no cross-department pair.
  EXPECT_EQ(rows->size(), 2u);
}

TEST(QueryTest, ToStringRendersSql) {
  SqlQuery q;
  SelectBlock b;
  b.from_tables = {"professor", "teaches"};
  b.select = {{0, "name"}};
  b.joins = {{{0, "id"}, {1, "prof_id"}}};
  b.filters = {{{1, "course_id"}, Value::Int(101)}};
  q.blocks = {b};
  std::string sql = q.ToString();
  EXPECT_NE(sql.find("SELECT t0.name"), std::string::npos);
  EXPECT_NE(sql.find("FROM professor t0, teaches t1"), std::string::npos);
  EXPECT_NE(sql.find("WHERE t0.id = t1.prof_id"), std::string::npos);
  EXPECT_NE(sql.find("AND t1.course_id = 101"), std::string::npos);
}

TEST(ValueTest, HashIsTypeTaggedAndConsistent) {
  EXPECT_EQ(Value::Int(7).Hash(), Value::Int(7).Hash());
  EXPECT_EQ(Value::Str("ab").Hash(), Value::Str("ab").Hash());
  EXPECT_NE(Value::Int(0).Hash(), Value::Double(0.0).Hash());
  EXPECT_NE(Value::Int(1).Hash(), Value::Str("1").Hash());
}

TEST(StatsTest, CollectCountsRowsAndDistincts) {
  Database db = UniversityDb();
  DatabaseStats stats = DatabaseStats::Collect(db);
  const TableStats* teaches = stats.Find("teaches");
  ASSERT_NE(teaches, nullptr);
  EXPECT_EQ(teaches->rows, 3u);
  EXPECT_EQ(teaches->Distinct(0), 2u);  // prof_id: p1, p2
  EXPECT_EQ(teaches->Distinct(1), 3u);  // course_id: 101, 102, 201
  EXPECT_EQ(teaches->Distinct(99), 1u);  // unknown column: safe denominator
  EXPECT_EQ(stats.Find("nope"), nullptr);
}

// Evaluates `q` with the columnar evaluator.
Result<std::vector<Row>> Columnar(const Database& db, const SqlQuery& q,
                                  EvalStats* stats = nullptr,
                                  uint64_t seed = 0) {
  EvalOptions opts;
  opts.eval_stats = stats;
  opts.join_order_seed = seed;
  return Execute(db, q, opts);
}

// The testkit reference evaluator's answer (empty, with a test failure, if
// it errors).
std::vector<Row> Reference(const Database& db, const SqlQuery& q) {
  auto rows = testkit::EvalReference(db, q);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return rows.ok() ? *rows : std::vector<Row>{};
}

SqlQuery ProfessorCoursesQuery() {
  SqlQuery q;
  SelectBlock b;
  b.from_tables = {"professor", "teaches", "course"};
  b.select = {{0, "name"}, {2, "title"}};
  b.joins = {{{0, "id"}, {1, "prof_id"}}, {{1, "course_id"}, {2, "id"}}};
  q.blocks.push_back(b);
  return q;
}

TEST(ColumnarTest, EnginesAgreeOnJoinQuery) {
  Database db = UniversityDb();
  SqlQuery q = ProfessorCoursesQuery();
  EvalStats cstats;
  auto col = Columnar(db, q, &cstats);
  ASSERT_TRUE(col.ok()) << col.status().ToString();
  EXPECT_EQ(*col, Reference(db, q));
  EXPECT_EQ(col->size(), 3u);
  EXPECT_GT(cstats.batches, 0u);
  EXPECT_GT(cstats.rows_scanned, 0u);
}

TEST(ColumnarTest, JoinOrderSeedNeverChangesAnswers) {
  Database db = UniversityDb();
  SqlQuery q = ProfessorCoursesQuery();
  auto baseline = Columnar(db, q);
  ASSERT_TRUE(baseline.ok());
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    auto shuffled = Columnar(db, q, nullptr, seed);
    ASSERT_TRUE(shuffled.ok()) << shuffled.status().ToString();
    EXPECT_EQ(*shuffled, *baseline) << "seed " << seed;
  }
}

TEST(ColumnarTest, SharedPrefixEvaluatedOnceAcrossUnionBlocks) {
  Database db = UniversityDb();
  // Two blocks whose first step is the identical filtered scan + join
  // prefix over (professor ⋈ teaches); only the final course filter
  // differs. The shared-subplan cache must materialise the prefix once.
  SqlQuery q;
  for (int course : {101, 201}) {
    SelectBlock b;
    b.from_tables = {"professor", "teaches"};
    b.select = {{0, "name"}};
    b.joins = {{{0, "id"}, {1, "prof_id"}}};
    b.filters = {{{1, "course_id"}, Value::Int(course)}};
    q.blocks.push_back(b);
  }
  // Shared prefixes are discovered on the resolved plan, so the common
  // "professor" scan (step 0 of both blocks) is computed once.
  auto plan = PreparedPlan::Prepare(db, q);
  ASSERT_TRUE(plan.ok());
  EvalStats stats;
  EvalOptions opts;
  opts.eval_stats = &stats;
  auto rows = Execute(*plan, opts);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_GE(stats.shared_nodes, 1u);
  EXPECT_GE(stats.shared_node_hits, 1u);
  EXPECT_EQ(*rows, Reference(db, q));
}

TEST(ColumnarTest, StatisticsReorderSelectiveTableFirst) {
  Database db;
  ASSERT_TRUE(db.CreateTable({"big", {{"x", ValueType::kInt},
                                      {"pad", ValueType::kInt}}})
                  .ok());
  ASSERT_TRUE(
      db.CreateTable({"small", {{"x", ValueType::kInt},
                                {"tag", ValueType::kString}}})
          .ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.Insert("big", {Value::Int(i), Value::Int(i % 7)}).ok());
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        db.Insert("small", {Value::Int(i * 10), Value::Str("keep")}).ok());
  }
  DatabaseStats stats = DatabaseStats::Collect(db);
  // Written with the unselective big table first; the cost-based order
  // should start from the filtered small table instead.
  SqlQuery q;
  SelectBlock b;
  b.from_tables = {"big", "small"};
  b.select = {{0, "x"}};
  b.joins = {{{0, "x"}, {1, "x"}}};
  b.filters = {{{1, "tag"}, Value::Str("keep")}};
  q.blocks.push_back(b);
  PrepareOptions popts;
  popts.stats = &stats;
  auto plan = PreparedPlan::Prepare(db, q, popts);
  ASSERT_TRUE(plan.ok());
  EvalStats estats;
  EvalOptions opts;
  opts.eval_stats = &estats;
  auto rows = Execute(*plan, opts);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(estats.join_reorders, 1u);
  EXPECT_EQ(*rows, Reference(db, q));
  EXPECT_EQ(rows->size(), 5u);
}

TEST(ColumnarTest, RowCapTruncatesWithDegradationUnderBothEngines) {
  Database db = UniversityDb();
  SqlQuery q = ProfessorCoursesQuery();
  EvalOptions opts;
  opts.max_rows = 2;
  auto hard = Execute(db, q, opts);
  EXPECT_EQ(hard.status().code(), StatusCode::kResourceExhausted);
  Degradation degradation;
  opts.allow_partial = true;
  opts.degradation = &degradation;
  auto soft = Execute(db, q, opts);
  ASSERT_TRUE(soft.ok()) << soft.status().ToString();
  EXPECT_EQ(soft->size(), 2u);
  EXPECT_FALSE(degradation.events.empty());
  // The truncated result is a subset of the reference answers.
  const std::vector<Row> full = Reference(db, q);
  for (const Row& row : *soft) {
    EXPECT_NE(std::find(full.begin(), full.end(), row), full.end());
  }
}

TEST(ColumnarTest, CrossProductBlockAgreesAcrossEngines) {
  Database db = UniversityDb();
  SqlQuery q;
  SelectBlock b;  // no join predicate between the two FROM entries
  b.from_tables = {"professor", "course"};
  b.select = {{0, "name"}, {1, "title"}};
  q.blocks.push_back(b);
  auto col = Columnar(db, q);
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(*col, Reference(db, q));
  EXPECT_EQ(col->size(), 6u);  // 2 professors × 3 courses
}

TEST(ColumnarTest, CancelledBudgetStopsCrossProductOutput) {
  // 20 × 20 rows: the scans and the probe together visit fewer than 256
  // rows, so only the polls in the output loops (join append, projection)
  // can notice the cancellation before all 400 rows are produced.
  Database db;
  ASSERT_TRUE(db.CreateTable({"l", {{"x", ValueType::kInt}}}).ok());
  ASSERT_TRUE(db.CreateTable({"r", {{"y", ValueType::kInt}}}).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db.Insert("l", {Value::Int(i)}).ok());
    ASSERT_TRUE(db.Insert("r", {Value::Int(100 + i)}).ok());
  }
  SqlQuery q;
  SelectBlock b;
  b.from_tables = {"l", "r"};
  b.select = {{0, "x"}, {1, "y"}};
  q.blocks.push_back(b);
  const std::vector<Row> full = Reference(db, q);
  ASSERT_EQ(full.size(), 400u);

  ExecBudget budget;
  budget.Cancel();
  Degradation degradation;
  EvalOptions opts;
  opts.budget = &budget;
  opts.allow_partial = true;
  opts.degradation = &degradation;
  auto rows = Execute(db, q, opts);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_LT(rows->size(), 400u);
  for (const Row& row : *rows) {
    EXPECT_TRUE(std::binary_search(full.begin(), full.end(), row));
  }
  ASSERT_EQ(degradation.events.size(), 1u);
  EXPECT_EQ(degradation.events[0].stage, "rdb");
}

}  // namespace
}  // namespace olite::rdb
