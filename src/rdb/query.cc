#include "rdb/query.h"

#include "rdb/columnar.h"
#include "rdb/stats.h"

namespace olite::rdb {

namespace {

std::string RefToString(const ColumnRef& ref) {
  std::string out = "t";
  out += std::to_string(ref.table_index);
  out += '.';
  out += ref.column;
  return out;
}

Result<ResolvedRef> Resolve(const ColumnRef& ref,
                            const std::vector<const Table*>& tables) {
  if (ref.table_index >= tables.size()) {
    return Status::OutOfRange("column reference " + RefToString(ref) +
                              " exceeds FROM list");
  }
  auto idx = tables[ref.table_index]->schema().ColumnIndex(ref.column);
  if (!idx) {
    return Status::NotFound("no column '" + ref.column + "' in table '" +
                            tables[ref.table_index]->schema().table_name +
                            "'");
  }
  return ResolvedRef{ref.table_index, *idx};
}

Result<ResolvedBlock> ResolveBlock(const Database& db,
                                   const SelectBlock& block) {
  ResolvedBlock out;
  if (block.from_tables.empty()) {
    return Status::InvalidArgument("empty FROM list");
  }
  for (const auto& name : block.from_tables) {
    OLITE_ASSIGN_OR_RETURN(const Table* t, db.GetTable(name));
    out.tables.push_back(t);
  }
  for (const auto& ref : block.select) {
    OLITE_ASSIGN_OR_RETURN(ResolvedRef r, Resolve(ref, out.tables));
    out.select.push_back(r);
  }
  for (const auto& join : block.joins) {
    OLITE_ASSIGN_OR_RETURN(ResolvedRef l, Resolve(join.lhs, out.tables));
    OLITE_ASSIGN_OR_RETURN(ResolvedRef r, Resolve(join.rhs, out.tables));
    out.joins.push_back({l, r});
  }
  for (const auto& filter : block.filters) {
    OLITE_ASSIGN_OR_RETURN(ResolvedRef c, Resolve(filter.col, out.tables));
    out.filters.push_back({c, filter.value});
  }
  // Lay out the output row: constants claim their positions, columns fill
  // the remaining coordinates in order.
  const size_t arity = block.select.size() + block.const_select.size();
  out.row_template.assign(arity, Value());
  std::vector<bool> taken(arity, false);
  for (const auto& c : block.const_select) {
    if (c.position >= arity || taken[c.position]) {
      return Status::InvalidArgument(
          "constant select position " + std::to_string(c.position) +
          " out of range or duplicated (arity " + std::to_string(arity) +
          ")");
    }
    taken[c.position] = true;
    out.row_template[c.position] = c.value;
  }
  size_t next = 0;
  for (size_t i = 0; i < block.select.size(); ++i) {
    while (taken[next]) ++next;
    out.select_positions.push_back(next);
    taken[next++] = true;
  }
  return out;
}

}  // namespace

std::string SqlQuery::ToString() const {
  std::string out;
  for (size_t b = 0; b < blocks.size(); ++b) {
    if (b > 0) out += "\nUNION\n";
    const SelectBlock& block = blocks[b];
    out += "SELECT ";
    if (block.select.empty() && block.const_select.empty()) out += "*";
    // Render in output-coordinate order, splicing constant literals in.
    {
      const size_t arity = block.select.size() + block.const_select.size();
      std::vector<const Value*> consts(arity, nullptr);
      for (const auto& c : block.const_select) {
        if (c.position < arity) consts[c.position] = &c.value;
      }
      size_t col = 0;
      for (size_t i = 0; i < arity; ++i) {
        if (i > 0) out += ", ";
        if (consts[i] != nullptr) {
          out += consts[i]->ToString();
        } else if (col < block.select.size()) {
          out += RefToString(block.select[col++]);
        }
      }
    }
    out += " FROM ";
    for (size_t i = 0; i < block.from_tables.size(); ++i) {
      if (i > 0) out += ", ";
      out += block.from_tables[i] + " t" + std::to_string(i);
    }
    bool first = true;
    auto where = [&]() -> std::string {
      if (first) {
        first = false;
        return " WHERE ";
      }
      return " AND ";
    };
    for (const auto& join : block.joins) {
      out += where() + RefToString(join.lhs) + " = " + RefToString(join.rhs);
    }
    for (const auto& filter : block.filters) {
      out += where() + RefToString(filter.col) + " = " +
             filter.value.ToString();
    }
  }
  return out;
}

namespace {

Status ValidateArity(const SqlQuery& query) {
  if (query.blocks.empty()) {
    return Status::InvalidArgument("query has no select blocks");
  }
  size_t arity =
      query.blocks[0].select.size() + query.blocks[0].const_select.size();
  for (const auto& block : query.blocks) {
    if (block.select.size() + block.const_select.size() != arity) {
      return Status::InvalidArgument(
          "UNION blocks project different arities");
    }
  }
  return Status::Ok();
}

// Shared evaluation core of both Execute overloads: run the columnar
// programs, then apply the truncation/degradation protocol. `programs` may
// be null (ad-hoc path); it and the join_order_seed hook compile here.
Result<std::vector<Row>> EvalResolvedBlocks(
    const std::vector<ResolvedBlock>& blocks,
    const std::vector<columnar::BlockProgram>* programs,
    const EvalOptions& options) {
  EvalSink sink(options.budget, options.max_rows);
  EvalStats local_stats;
  EvalStats* stats =
      options.eval_stats != nullptr ? options.eval_stats : &local_stats;
  *stats = {};
  size_t blocks_done = 0;
  std::vector<columnar::BlockProgram> recompiled;
  if (programs == nullptr || options.join_order_seed != 0) {
    recompiled =
        columnar::CompilePlan(blocks, nullptr, options.join_order_seed);
    programs = &recompiled;
  }
  OLITE_RETURN_IF_ERROR(
      columnar::EvalPlan(*programs, &sink, stats, &blocks_done));
  stats->rows_scanned = sink.scanned();
  std::vector<Row> out = sink.TakeSorted();
  if (sink.stopped()) {
    if (!options.allow_partial) return sink.exhausted();
    if (options.degradation != nullptr) {
      options.degradation->Add(
          "rdb", "evaluation truncated after " + std::to_string(out.size()) +
                     " rows (" + std::to_string(blocks_done) + "/" +
                     std::to_string(blocks.size()) +
                     " blocks finished): " + sink.exhausted().message());
    }
  }
  return out;
}

}  // namespace

struct PreparedPlan::Resolved {
  std::vector<ResolvedBlock> blocks;
  /// Columnar programs compiled once at preparation time (with statistics
  /// when the caller supplied them). The join_order_seed test hook ignores
  /// them.
  std::vector<columnar::BlockProgram> programs;
};

Result<PreparedPlan> PreparedPlan::Prepare(const Database& db, SqlQuery query,
                                           const PrepareOptions& options) {
  OLITE_RETURN_IF_ERROR(ValidateArity(query));
  auto resolved = std::make_shared<Resolved>();
  resolved->blocks.reserve(query.blocks.size());
  for (const auto& block : query.blocks) {
    OLITE_ASSIGN_OR_RETURN(ResolvedBlock r, ResolveBlock(db, block));
    resolved->blocks.push_back(std::move(r));
  }
  resolved->programs = columnar::CompilePlan(resolved->blocks, options.stats);
  PreparedPlan plan;
  plan.sql_text_ = query.ToString();
  plan.query_ = std::make_shared<const SqlQuery>(std::move(query));
  plan.resolved_ = std::move(resolved);
  return plan;
}

Result<PreparedPlan> PreparedPlan::Prepare(const Database& db,
                                           SqlQuery query) {
  return Prepare(db, std::move(query), PrepareOptions{});
}

Result<std::vector<Row>> Execute(const PreparedPlan& plan,
                                 const EvalOptions& options) {
  return EvalResolvedBlocks(plan.resolved_->blocks, &plan.resolved_->programs,
                            options);
}

Result<std::vector<Row>> Execute(const Database& db, const SqlQuery& query,
                                 const EvalOptions& options) {
  OLITE_RETURN_IF_ERROR(ValidateArity(query));
  std::vector<ResolvedBlock> blocks;
  blocks.reserve(query.blocks.size());
  for (const auto& block : query.blocks) {
    OLITE_ASSIGN_OR_RETURN(ResolvedBlock resolved, ResolveBlock(db, block));
    blocks.push_back(std::move(resolved));
  }
  return EvalResolvedBlocks(blocks, nullptr, options);
}

}  // namespace olite::rdb
