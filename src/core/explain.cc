#include "core/explain.h"

#include "core/candidate_gen.h"
#include "core/filter_universe.h"
#include "schema/schema_graph.h"

namespace qbe {

DiscoveryExplain ExplainDiscovery(const Database& db, const ExampleTable& et,
                                  const DiscoveryOptions& options) {
  DiscoveryExplain explain;

  // Stage 1: candidate projection columns.
  std::vector<std::vector<ColumnRef>> candidate_columns =
      options.min_row_support >= 0
          ? RetrieveCandidateColumnsRelaxed(db, et, options.min_row_support)
          : RetrieveCandidateColumns(db, et);
  for (int c = 0; c < et.num_columns(); ++c) {
    DiscoveryExplain::EtColumnInfo info;
    info.name = et.column_name(c).empty()
                    ? std::string(1, static_cast<char>('A' + c))
                    : et.column_name(c);
    for (const ColumnRef& col : candidate_columns[c]) {
      info.candidate_columns.push_back(db.QualifiedColumnName(col));
    }
    explain.et_columns.push_back(std::move(info));
  }

  // Stage 2: candidate enumeration statistics.
  SchemaGraph graph(db);
  CandidateGenOptions gen_options;
  gen_options.max_join_tree_size = options.max_join_tree_size;
  gen_options.max_candidates = options.max_candidates;
  std::vector<CandidateQuery> candidates = EnumerateCandidateQueries(
      db, graph, et, candidate_columns, gen_options);
  explain.num_candidates = candidates.size();
  for (const CandidateQuery& q : candidates) {
    explain.candidates_by_tree_size[q.tree.NumVertices()] += 1;
  }

  // Stage 3: filter universe statistics (what FILTER would build).
  if (!candidates.empty()) {
    FilterUniverse universe = BuildFilterUniverse(graph, et, candidates);
    explain.num_filters = universe.filters.size();
    for (const FilterRecord& f : universe.filters) {
      if (universe.classes[f.cls].IsTriviallySuccessful()) {
        explain.num_trivial_filters += 1;
      }
    }
  }

  // Stage 4: the actual discovery (shares nothing with the above; results
  // must match a plain DiscoverQueries call).
  DiscoveryResult result = DiscoverQueries(db, et, options);
  explain.num_valid = result.queries.size();
  explain.counters = result.counters;
  explain.queries = std::move(result.queries);
  return explain;
}

std::string DiscoveryExplain::ToString() const {
  std::string out = "discovery explain\n";
  out += "  candidate projection columns (Eq. 3):\n";
  for (const EtColumnInfo& info : et_columns) {
    out += "    " + info.name + " -> ";
    if (info.candidate_columns.empty()) {
      out += "(none)";
    } else {
      for (size_t i = 0; i < info.candidate_columns.size(); ++i) {
        if (i > 0) out += ", ";
        out += info.candidate_columns[i];
      }
    }
    out += "\n";
  }
  out += "  candidates: " + std::to_string(num_candidates) + " (by tree size:";
  for (const auto& [size, count] : candidates_by_tree_size) {
    out += " " + std::to_string(size) + "->" + std::to_string(count);
  }
  out += ")\n";
  out += "  filter universe: " + std::to_string(num_filters) + " filters, " +
         std::to_string(num_trivial_filters) + " trivially successful\n";
  out += "  verifications: " + std::to_string(counters.verifications) +
         " (estimated cost " + std::to_string(counters.estimated_cost) +
         ")\n";
  out += "  valid queries: " + std::to_string(num_valid) + "\n";
  for (const DiscoveredQuery& q : queries) {
    out += "    " + q.sql + "\n";
  }
  return out;
}

}  // namespace qbe
