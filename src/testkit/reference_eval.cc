#include "testkit/reference_eval.h"

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "obda/unfolder.h"

namespace olite::testkit {

namespace {

// (FROM position, column position).
struct Ref {
  size_t table;
  size_t col;
};

// A select block with its names resolved and its output row laid out.
struct Block {
  std::vector<const rdb::Table*> tables;
  std::vector<std::pair<Ref, size_t>> select;  // column → output position
  std::vector<std::pair<Ref, Ref>> joins;
  std::vector<std::pair<Ref, rdb::Value>> filters;
  rdb::Row row_template;  // constants pre-filled
};

Result<Ref> ResolveRef(const std::vector<const rdb::Table*>& tables,
                       const rdb::ColumnRef& ref) {
  if (ref.table_index >= tables.size()) {
    return Status::OutOfRange("column reference beyond the FROM list");
  }
  auto col = tables[ref.table_index]->schema().ColumnIndex(ref.column);
  if (!col) return Status::NotFound("no column '" + ref.column + "'");
  return Ref{ref.table_index, *col};
}

Result<Block> ResolveBlock(const rdb::Database& db,
                           const rdb::SelectBlock& sb) {
  Block b;
  for (const auto& name : sb.from_tables) {
    OLITE_ASSIGN_OR_RETURN(const rdb::Table* t, db.GetTable(name));
    b.tables.push_back(t);
  }
  const size_t arity = sb.select.size() + sb.const_select.size();
  b.row_template.assign(arity, rdb::Value());
  std::vector<bool> taken(arity, false);
  for (const auto& c : sb.const_select) {
    if (c.position >= arity || taken[c.position]) {
      return Status::InvalidArgument("bad constant select position");
    }
    taken[c.position] = true;
    b.row_template[c.position] = c.value;
  }
  size_t pos = 0;
  for (const auto& ref : sb.select) {
    while (taken[pos]) ++pos;
    OLITE_ASSIGN_OR_RETURN(Ref r, ResolveRef(b.tables, ref));
    b.select.emplace_back(r, pos++);
  }
  for (const auto& j : sb.joins) {
    OLITE_ASSIGN_OR_RETURN(Ref l, ResolveRef(b.tables, j.lhs));
    OLITE_ASSIGN_OR_RETURN(Ref r, ResolveRef(b.tables, j.rhs));
    b.joins.emplace_back(l, r);
  }
  for (const auto& f : sb.filters) {
    OLITE_ASSIGN_OR_RETURN(Ref c, ResolveRef(b.tables, f.col));
    b.filters.emplace_back(c, f.value);
  }
  return b;
}

// Binds FROM entry `depth` to each of its rows in turn; a join or filter is
// checked at the depth that binds its last reference.
void Bind(const Block& b, size_t depth, std::vector<const rdb::Row*>* binding,
          std::set<rdb::Row>* out) {
  auto value = [&](const Ref& r) -> const rdb::Value& {
    return (*(*binding)[r.table])[r.col];
  };
  if (depth == b.tables.size()) {
    rdb::Row row = b.row_template;
    for (const auto& [ref, pos] : b.select) row[pos] = value(ref);
    out->insert(std::move(row));
    return;
  }
  for (const rdb::Row& row : b.tables[depth]->rows()) {
    (*binding)[depth] = &row;
    bool ok = true;
    for (const auto& [ref, v] : b.filters) {
      if (ref.table == depth && !(value(ref) == v)) ok = false;
    }
    for (const auto& [l, r] : b.joins) {
      if (std::max(l.table, r.table) == depth && !(value(l) == value(r))) {
        ok = false;
      }
    }
    if (ok) Bind(b, depth + 1, binding, out);
  }
}

}  // namespace

Result<std::vector<rdb::Row>> EvalReference(const rdb::Database& db,
                                            const rdb::SqlQuery& query) {
  std::set<rdb::Row> out;
  for (const auto& sb : query.blocks) {
    if (sb.select.size() + sb.const_select.size() !=
        query.blocks[0].select.size() + query.blocks[0].const_select.size()) {
      return Status::InvalidArgument("UNION blocks project different arities");
    }
    OLITE_ASSIGN_OR_RETURN(Block b, ResolveBlock(db, sb));
    std::vector<const rdb::Row*> binding(b.tables.size(), nullptr);
    Bind(b, 0, &binding, &out);
  }
  return std::vector<rdb::Row>(out.begin(), out.end());
}

Result<rdb::SqlQuery> UnfoldToSql(const obda::CompiledOntology& compiled,
                                  const query::ConjunctiveQuery& cq) {
  OLITE_ASSIGN_OR_RETURN(query::UnionQuery ucq,
                         compiled.rewriter().Rewrite(cq));
  obda::UnfoldOptions uopts;
  uopts.constraints = &compiled.constraints();
  return obda::Unfold(ucq, compiled.mappings(), compiled.database(), uopts);
}

Result<std::vector<obda::AnswerTuple>> ReferenceAnswers(
    const obda::CompiledOntology& compiled, const query::ConjunctiveQuery& cq) {
  std::vector<obda::AnswerTuple> out;
  auto sql = UnfoldToSql(compiled, cq);
  if (!sql.ok()) {
    if (sql.status().code() == StatusCode::kNotFound) return out;
    return sql.status();
  }
  OLITE_ASSIGN_OR_RETURN(std::vector<rdb::Row> rows,
                         EvalReference(compiled.database(), *sql));
  for (const rdb::Row& row : rows) {
    obda::AnswerTuple tuple;
    for (const rdb::Value& v : row) tuple.push_back(v.ToName());
    out.push_back(std::move(tuple));
  }
  return out;
}

}  // namespace olite::testkit
