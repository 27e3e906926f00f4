#include "core/discovery.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "core/filter_verifier.h"
#include "core/simple_prune.h"
#include "core/verify_all.h"
#include "core/weave.h"
#include "exec/executor.h"
#include "exec/sql_render.h"
#include "obs/trace.h"
#include "schema/schema_graph.h"
#include "shard/shard_exec.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace qbe {
namespace {

SpanKind VerifySpanKind(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kVerifyAll: return SpanKind::kVerifyAll;
    case Algorithm::kSimplePrune: return SpanKind::kSimplePrune;
    case Algorithm::kFilter: return SpanKind::kFilter;
    case Algorithm::kWeave: return SpanKind::kWeave;
  }
  return SpanKind::kVerifyAll;
}

std::unique_ptr<CandidateVerifier> MakeVerifier(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kVerifyAll:
      return std::make_unique<VerifyAll>();
    case Algorithm::kSimplePrune:
      return std::make_unique<SimplePrune>();
    case Algorithm::kFilter:
      return std::make_unique<FilterVerifier>();
    case Algorithm::kWeave:
      return std::make_unique<JoinTreeWeave>();
  }
  return nullptr;
}

/// Ranking score (§8 future work): prefer fewer joins (simpler
/// explanations) and more selective projection columns (mappings where the
/// ET values pin down few base rows are likelier to reflect user intent).
/// Match and live-row counts are integers summed over the views first
/// (exact — rows partition across shards), so a sharded score is
/// bit-identical to the unsharded one. View `v`'s phrase matches come from
/// `tables[v]`, the match table verification already filled, or are matched
/// directly when it is null.
double RankScore(std::span<const DbView> views,
                 std::span<const EtTokenIds> et_ids,
                 std::span<MatchCache* const> tables, const ExampleTable& et,
                 const CandidateQuery& query) {
  std::vector<uint32_t> scratch;
  double selectivity_sum = 0.0;
  int cells = 0;
  for (int c = 0; c < et.num_columns(); ++c) {
    const ColumnRef& col = query.projection[c];
    uint64_t live_rows = 0;
    for (const DbView& view : views) live_rows += view.LiveRows(col.rel);
    for (int r = 0; r < et.num_rows(); ++r) {
      if (et.cell(r, c).IsEmpty()) continue;
      size_t matches = 0;
      for (size_t v = 0; v < views.size(); ++v) {
        matches += MatchRows(tables[v], views[v], col, /*exact=*/false,
                             et_ids[v].CellIds(r, c), &scratch)
                       .size();
      }
      selectivity_sum += live_rows == 0
                             ? 0.0
                             : static_cast<double>(matches) /
                                   static_cast<double>(live_rows);
      ++cells;
    }
  }
  double avg_selectivity = cells == 0 ? 0.0 : selectivity_sum / cells;
  return 1.0 / query.tree.NumVertices() + 0.5 * (1.0 - avg_selectivity);
}

bool DeadlineExpired(const DiscoveryOptions& options) {
  return options.deadline != nullptr && options.deadline->Expired();
}

DiscoveryResult& MarkTimedOut(DiscoveryResult& result) {
  result.timed_out = true;
  result.error = "deadline exceeded before verification finished";
  result.queries.clear();
  return result;
}

}  // namespace

DiscoveryResult DiscoverQueries(const Database& db, const ExampleTable& et,
                                const DiscoveryOptions& options) {
  return DiscoverQueries(DbView(db), et, options, 0);
}

DiscoveryResult DiscoverQueries(const DbView& view, const ExampleTable& et,
                                const DiscoveryOptions& options,
                                uint64_t data_epoch) {
  return DiscoverQueries(std::span<const DbView>(&view, 1), et, options,
                         data_epoch);
}

DiscoveryResult DiscoverQueries(std::span<const DbView> views,
                                const ExampleTable& et,
                                const DiscoveryOptions& options,
                                uint64_t data_epoch, ShardStats* stats) {
  QBE_CHECK_MSG(!views.empty(), "discovery needs at least one view");
  const bool sharded = views.size() > 1;
  const Database& db = views[0].base();
  DiscoveryResult result;
  if (!et.IsWellFormed()) {
    result.error =
        "example table must be non-empty with no fully-empty row or column";
    return result;
  }
  if (sharded && options.algorithm == Algorithm::kWeave &&
      options.min_row_support < 0) {
    result.error =
        "WEAVE has no sharded form: it materializes tuple trees directly "
        "instead of asking existence queries";
    return result;
  }
  if (DeadlineExpired(options)) return MarkTimedOut(result);

  // The schema (relations, FK edges) is immutable across epochs and
  // identical across shards (SplitDatabase copies the catalog verbatim), so
  // the graph, join-tree enumeration and text-column gids are built once
  // from view 0; only row-level reads go through the views.
  SchemaGraph graph(db);
  Executor exec(views[0], graph);

  TraceContext* trace = options.trace;

  Stopwatch gen_timer;
  SpanRef gen_span =
      trace == nullptr ? kNullSpan : trace->OpenSpan(SpanKind::kCandidateGen);
  CandidateGenOptions gen_options;
  gen_options.max_join_tree_size = options.max_join_tree_size;
  gen_options.max_candidates = options.max_candidates;
  std::vector<std::vector<ColumnRef>> candidate_columns =
      options.min_row_support >= 0
          ? RetrieveCandidateColumnsRelaxed(views, et, options.min_row_support)
          : RetrieveCandidateColumns(views, et);
  for (const auto& cols : candidate_columns) {
    result.candidate_columns_per_et_column.push_back(cols.size());
  }
  std::vector<CandidateQuery> candidates = EnumerateCandidateQueries(
      db, graph, et, candidate_columns, gen_options);
  result.candidate_gen_seconds = gen_timer.ElapsedSeconds();
  result.num_candidates = candidates.size();
  if (trace != nullptr) trace->CloseSpan(gen_span);
  if (candidates.empty()) return result;

  if (DeadlineExpired(options)) return MarkTimedOut(result);

  // Resolve the ET's tokens against each view's dictionary once (base
  // dictionary plus overlay tokens). One view: every predicate this request
  // builds carries id vectors from here on. Several views: no global id
  // space exists, so predicates stay token-level and each shard's executor
  // resolves them on entry; the per-shard ids feed ranking.
  SpanRef resolve_span =
      trace == nullptr ? kNullSpan
                       : trace->OpenSpan(SpanKind::kEtTokenResolve);
  std::vector<EtTokenIds> et_ids;
  et_ids.reserve(views.size());
  for (const DbView& view : views) et_ids.emplace_back(et, view);
  if (trace != nullptr) trace->CloseSpan(resolve_span);
  // The request's phrase-match table (one per shard when sharded), shared
  // by verification and ranking; built only when caching is on.
  std::optional<MatchCache> match_cache;
  if (options.use_match_cache && !sharded) match_cache.emplace();
  VerifyContext ctx{.db = db,
                    .graph = graph,
                    .exec = exec,
                    .et = et,
                    .candidates = candidates,
                    .cache = options.cache,
                    .deadline = options.deadline,
                    .verify = options.verify,
                    .et_ids = sharded ? nullptr : &et_ids[0],
                    .match_cache = match_cache ? &*match_cache : nullptr,
                    .data_epoch = data_epoch,
                    .delta = sharded ? nullptr : views[0].delta(),
                    .trace = trace};
  // Shard-local executors with per-shard memo and match caches; every
  // evaluation routes through ctx.shards instead of `exec`.
  std::optional<ShardExecSet> shard_set;
  if (sharded) {
    shard_set.emplace(views, graph,
                      ShardExecSet::Options{options.verify.subtree_memo,
                                            options.use_match_cache});
    ctx.shards = &*shard_set;
  }

  // Per-algorithm verification span; every evaluation runs on this thread
  // and nests under it.
  SpanRef verify_span =
      trace == nullptr
          ? kNullSpan
          : trace->OpenSpan(options.min_row_support >= 0
                                ? SpanKind::kRelaxedVerify
                                : VerifySpanKind(options.algorithm));

  std::vector<int> matched(candidates.size(), 0);
  std::vector<bool> keep(candidates.size(), false);
  if (options.min_row_support >= 0) {
    // Relaxed validity: count matching rows per candidate (no early
    // elimination — every row's outcome matters) and keep those meeting
    // the support threshold.
    int need = std::min(options.min_row_support, et.num_rows());
    EvalEngine engine(ctx, &result.counters);
    Stopwatch timer;
    for (size_t q = 0; q < candidates.size(); ++q) {
      for (int r = 0; r < et.num_rows(); ++r) {
        // Early exit only when the threshold is provably unreachable.
        int remaining = et.num_rows() - r;
        if (matched[q] + remaining < need) break;
        if (engine.EvaluateCandidateRow(static_cast<int>(q), r)) {
          matched[q] += 1;
        }
      }
      keep[q] = matched[q] >= need;
    }
    result.counters.elapsed_seconds += timer.ElapsedSeconds();
  } else {
    std::vector<bool> valid =
        MakeVerifier(options.algorithm)->Verify(ctx, &result.counters);
    for (size_t q = 0; q < candidates.size(); ++q) {
      keep[q] = valid[q];
      matched[q] = valid[q] ? et.num_rows() : 0;
    }
  }
  // Cache counters are read here, before ranking reads the same tables, so
  // match_cache_* stays verification-phase traffic.
  if (sharded) {
    // Cache traffic lives per shard; fold it into the request counters
    // (diagnostics — hit counts legitimately differ from a one-view run,
    // unlike the verification counters).
    ShardStats shard_stats = shard_set->Stats();
    for (const ShardStats::PerShard& sc : shard_stats.per_shard) {
      result.counters.subtree_memo_hits += sc.subtree_memo_hits;
      result.counters.subtree_memo_lookups += sc.subtree_memo_lookups;
      result.counters.match_cache_hits += sc.match_cache_hits;
      result.counters.match_cache_lookups += sc.match_cache_lookups;
    }
    if (stats != nullptr) *stats = std::move(shard_stats);
  } else if (match_cache) {
    result.counters.match_cache_hits +=
        static_cast<int64_t>(match_cache->hits());
    result.counters.match_cache_lookups +=
        static_cast<int64_t>(match_cache->lookups());
  }
  if (trace != nullptr) trace->CloseSpan(verify_span);

  // An aborted run's validity vector is fabricated from the abort point on;
  // surface the timeout instead of a wrong answer.
  if (result.counters.aborted) return MarkTimedOut(result);

  ScopedSpan rank_span(trace, SpanKind::kRank);
  std::vector<MatchCache*> tables;
  for (size_t v = 0; v < views.size(); ++v) {
    tables.push_back(sharded ? shard_set->match_cache(static_cast<int>(v))
                             : ctx.match_cache);
  }
  std::vector<std::string> labels;
  for (int c = 0; c < et.num_columns(); ++c)
    labels.push_back(et.column_name(c));
  for (size_t q = 0; q < candidates.size(); ++q) {
    if (!keep[q]) continue;
    DiscoveredQuery out;
    out.query = candidates[q];
    out.sql = RenderProjectJoinSql(db, graph, candidates[q].tree,
                                   candidates[q].projection, labels);
    out.matched_rows = matched[q];
    out.score = options.rank_results
                    ? RankScore(views, et_ids, tables, et, candidates[q])
                    : 0.0;
    result.queries.push_back(std::move(out));
  }
  if (options.rank_results) {
    std::stable_sort(result.queries.begin(), result.queries.end(),
                     [](const DiscoveredQuery& a, const DiscoveredQuery& b) {
                       return a.score > b.score;
                     });
  }
  return result;
}

}  // namespace qbe
