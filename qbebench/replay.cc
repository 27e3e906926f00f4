#include "replay.h"

#include <algorithm>
#include <chrono>

#include "core/candidate_gen.h"
#include "core/discovery.h"
#include "core/filter_universe.h"
#include "core/filter_verifier.h"
#include "exec/executor.h"
#include "exec/match_cache.h"
#include "exec/sql_render.h"
#include "ingest/db_view.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "schema/schema_graph.h"
#include "service/concurrent_eval_cache.h"

namespace qbebench {
namespace {

using Clock = std::chrono::steady_clock;

double UsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// A span recorded by the benchmark around one layer call: accumulates the
/// call's duration into `*sink_us` when it ends.
class LayerSpan {
 public:
  explicit LayerSpan(double* sink_us) : sink_us_(sink_us) {}
  ~LayerSpan() { *sink_us_ += UsSince(start_); }
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  double* sink_us_;
  Clock::time_point start_ = Clock::now();
};

/// One ET's pass-3 layer times (microseconds) and counts.
struct LayerTimes {
  double request = 0, graph = 0, retrieve = 0, enumerate = 0, resolve = 0,
         universe = 0, verify = 0, render = 0;
  double candidate_columns = 0, candidates = 0, filters = 0, filter_deps = 0;
  double valid = 0;
};

qbe::WireResponse ToWire(const qbe::DiscoveryResult& result, uint64_t id) {
  qbe::WireResponse wire;
  wire.id = id;
  wire.num_candidates = result.num_candidates;
  wire.verifications = result.counters.verifications;
  wire.estimated_cost = result.counters.estimated_cost;
  wire.pruned_without_verification =
      result.counters.pruned_without_verification;
  for (const qbe::DiscoveredQuery& q : result.queries) {
    wire.queries.push_back(
        {q.sql, static_cast<uint32_t>(q.matched_rows), q.score});
  }
  return wire;
}

/// Pass 3: the layer calls DiscoverQueries makes, each in its own span.
/// Returns the rendered SQL of the valid candidates.
std::vector<std::string> RunLayers(const qbe::Database& db,
                                   const qbe::ExampleTable& et,
                                   qbe::EvalCacheBase* cache,
                                   LayerTimes* t) {
  std::vector<std::string> sql;
  LayerSpan request(&t->request);
  std::optional<qbe::SchemaGraph> graph;
  std::optional<qbe::Executor> exec;
  {
    LayerSpan span(&t->graph);
    graph.emplace(db);
    exec.emplace(qbe::DbView(db), *graph);
  }
  std::vector<std::vector<qbe::ColumnRef>> columns;
  {
    LayerSpan span(&t->retrieve);
    columns = qbe::RetrieveCandidateColumns(qbe::DbView(db), et);
  }
  for (const auto& cols : columns) t->candidate_columns += cols.size();
  std::vector<qbe::CandidateQuery> candidates;
  {
    LayerSpan span(&t->enumerate);
    candidates = qbe::EnumerateCandidateQueries(
        db, *graph, et, columns, qbe::CandidateGenOptions{});
  }
  t->candidates = static_cast<double>(candidates.size());
  if (candidates.empty()) return sql;
  std::optional<qbe::EtTokenIds> ids;
  {
    LayerSpan span(&t->resolve);
    ids.emplace(et, qbe::DbView(db));
  }
  {
    LayerSpan span(&t->universe);
    qbe::FilterUniverse universe =
        qbe::BuildFilterUniverse(*graph, et, candidates);
    t->filters = universe.num_filters();
    for (int f = 0; f < universe.num_filters(); ++f) {
      t->filter_deps += universe.supers_of[f].size() +
                        universe.subs_of[f].size();
    }
  }
  std::vector<bool> valid;
  {
    LayerSpan span(&t->verify);
    qbe::MatchCache match_cache;
    const qbe::VerifyContext ctx{.db = db,
                                 .graph = *graph,
                                 .exec = *exec,
                                 .et = et,
                                 .candidates = candidates,
                                 .cache = cache,
                                 .verify = {},
                                 .et_ids = &*ids,
                                 .match_cache = &match_cache};
    qbe::VerificationCounters counters;
    valid = qbe::FilterVerifier().Verify(ctx, &counters);
  }
  LayerSpan span(&t->render);
  std::vector<std::string> labels;
  for (int c = 0; c < et.num_columns(); ++c) labels.push_back(et.column_name(c));
  for (size_t q = 0; q < candidates.size(); ++q) {
    if (!valid[q]) continue;
    t->valid += 1;
    sql.push_back(qbe::RenderProjectJoinSql(db, *graph, candidates[q].tree,
                                            candidates[q].projection, labels));
  }
  return sql;
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

ReplayResult ReplayLayers(const qbe::Database& db,
                          const std::vector<const qbe::ExampleTable*>& ets,
                          const std::vector<const Answer*>& expected) {
  ReplayResult out;
  qbe::ConcurrentEvalCache plain_cache, traced_cache, layer_cache;

  std::vector<double> untraced_us, traced_us;
  std::vector<double> exists_calls, exists_ms, match_ms, rank_us;
  int64_t memo_hits = 0, memo_lookups = 0, match_hits = 0, match_lookups = 0;
  double verifications = 0, pruned = 0;
  std::vector<double> graph_us, retrieve_us, enumerate_us, resolve_us,
      universe_us, verify_self_us, render_us, candidate_columns, candidates,
      filters, filter_deps;
  double valid_total = 0, candidates_total = 0;
  double effective_request_total = 0, unattributed_total = 0,
         universe_total = 0;
  std::vector<double> encode_us, decode_us, request_bytes, response_bytes;

  for (size_t i = 0; i < ets.size(); ++i) {
    const qbe::ExampleTable& et = *ets[i];

    // Passes 1 and 2 alternate which goes first, so warm CPU caches favour
    // neither side of obs.trace_overhead_frac.
    qbe::DiscoveryResult untraced, traced;
    qbe::TraceContext trace_ctx;
    auto run_untraced = [&] {
      qbe::DiscoveryOptions plain;
      plain.cache = &plain_cache;
      const auto start = Clock::now();
      untraced = qbe::DiscoverQueries(db, et, plain);
      untraced_us.push_back(UsSince(start));
    };
    auto run_traced = [&] {
      qbe::DiscoveryOptions options;
      options.cache = &traced_cache;
      options.trace = &trace_ctx;
      const auto start = Clock::now();
      traced = qbe::DiscoverQueries(db, et, options);
      traced_us.push_back(UsSince(start));
    };
    if (i % 2 == 0) {
      run_untraced();
      run_traced();
    } else {
      run_traced();
      run_untraced();
    }
    const qbe::Trace trace = trace_ctx.Stitch();
    exists_calls.push_back(
        static_cast<double>(trace.PhaseCount(qbe::SpanKind::kEvalExec)));
    exists_ms.push_back(trace.PhaseNs(qbe::SpanKind::kEvalExec) / 1e6);
    match_ms.push_back(trace.PhaseNs(qbe::SpanKind::kTextMatch) / 1e6);
    rank_us.push_back(trace.PhaseNs(qbe::SpanKind::kRank) / 1e3);
    memo_hits += traced.counters.subtree_memo_hits;
    memo_lookups += traced.counters.subtree_memo_lookups;
    match_hits += traced.counters.match_cache_hits;
    match_lookups += traced.counters.match_cache_lookups;
    verifications += static_cast<double>(traced.counters.verifications);
    pruned +=
        static_cast<double>(traced.counters.pruned_without_verification);
    if (out.mismatch.empty()) {
      std::string why = Mismatch(*expected[i], AnswerOf(traced));
      if (why.empty()) why = Mismatch(*expected[i], AnswerOf(untraced));
      if (!why.empty()) {
        out.mismatch = "replay ET " + std::to_string(i) + ": " + why;
      }
    }

    // Pass 3: the layer calls under the benchmark's own spans.
    LayerTimes t;
    std::vector<std::string> sql = RunLayers(db, et, &layer_cache, &t);
    graph_us.push_back(t.graph);
    retrieve_us.push_back(t.retrieve);
    enumerate_us.push_back(t.enumerate);
    candidate_columns.push_back(t.candidate_columns);
    candidates.push_back(t.candidates);
    if (t.candidates > 0) {
      resolve_us.push_back(t.resolve);
      universe_us.push_back(t.universe);
      verify_self_us.push_back(t.verify - t.universe);
      render_us.push_back(t.render);
      filters.push_back(t.filters);
      filter_deps.push_back(t.filter_deps);
    }
    valid_total += t.valid;
    candidates_total += t.candidates;
    // FilterVerifier::Verify builds its own universe, so the stand-alone
    // build is time the real request does not spend twice.
    const double effective = t.request - t.universe;
    effective_request_total += effective;
    universe_total += t.universe;
    unattributed_total +=
        effective - (t.graph + t.retrieve + t.enumerate + t.resolve +
                     t.verify + t.render);
    std::vector<std::string> want = expected[i]->sql;
    std::sort(want.begin(), want.end());
    std::sort(sql.begin(), sql.end());
    if (out.mismatch.empty() && sql != want) {
      out.mismatch = "layer replay ET " + std::to_string(i) +
                     ": valid SQL set differs from DiscoverQueries";
    }

    // Wire codec over this request and its answer.
    std::string frame;
    auto start = Clock::now();
    qbe::EncodeRequestFrame(qbe::WireRequest::FromExampleTable(et, i + 1),
                            &frame);
    double enc = UsSince(start);
    request_bytes.push_back(static_cast<double>(frame.size()));
    qbe::FrameView view;
    qbe::WireFault fault = qbe::WireFault::kNone;
    qbe::WireRequest decoded_request;
    std::string error;
    start = Clock::now();
    bool ok = qbe::TryExtractFrame(frame.data(), frame.size(), &view,
                                   &fault) == qbe::FrameStatus::kFrame &&
              qbe::DecodeRequestPayload(view.payload, view.payload_bytes,
                                        &decoded_request, &error);
    double dec = UsSince(start);
    const qbe::WireResponse wire = ToWire(traced, i + 1);
    std::string response_frame;
    start = Clock::now();
    qbe::EncodeResponseFrame(wire, &response_frame);
    enc += UsSince(start);
    response_bytes.push_back(static_cast<double>(response_frame.size()));
    qbe::WireResponse decoded_response;
    start = Clock::now();
    ok = ok &&
         qbe::TryExtractFrame(response_frame.data(), response_frame.size(),
                              &view, &fault) == qbe::FrameStatus::kFrame &&
         qbe::DecodeResponsePayload(view.payload, view.payload_bytes,
                                    &decoded_response, &error);
    dec += UsSince(start);
    encode_us.push_back(enc);
    decode_us.push_back(dec);
    if (out.mismatch.empty() &&
        (!ok || !Mismatch(*expected[i], AnswerOf(decoded_response)).empty())) {
      out.mismatch = "wire codec round trip of ET " + std::to_string(i) +
                     " failed: " + error;
    }
  }

  const double n = static_cast<double>(std::max<size_t>(ets.size(), 1));
  auto& m = out.metrics;
  m["text.resolve_us"] = Quantile(resolve_us, 0.5);
  m["text.resolve_us.p99"] = Quantile(resolve_us, 0.99);
  m["text.match_ms"] = Quantile(match_ms, 0.5);
  m["text.match_ms.p99"] = Quantile(match_ms, 0.99);
  m["core.graph_us"] = Quantile(graph_us, 0.5);
  m["core.retrieve_us"] = Quantile(retrieve_us, 0.5);
  m["core.enumerate_us"] = Quantile(enumerate_us, 0.5);
  m["core.candidate_columns"] = Quantile(candidate_columns, 0.5);
  m["core.candidates"] = Quantile(candidates, 0.5);
  m["core.universe_us"] = Quantile(universe_us, 0.5);
  m["core.universe_us.p99"] = Quantile(universe_us, 0.99);
  m["core.universe_frac"] = Ratio(universe_total, effective_request_total);
  m["core.filters"] = Quantile(filters, 0.5);
  m["core.filter_deps"] = Quantile(filter_deps, 0.5);
  m["core.verify_self_us"] = Quantile(verify_self_us, 0.5);
  m["core.verifications"] = verifications / n;
  m["core.pruned"] = pruned / n;
  m["core.valid_frac"] = Ratio(valid_total, candidates_total);
  m["exec.exists_calls"] = Quantile(exists_calls, 0.5);
  m["exec.exists_ms"] = Quantile(exists_ms, 0.5);
  m["exec.exists_frac"] = Ratio(Sum(exists_ms) * 1e3, Sum(traced_us));
  m["exec.subtree_memo_hit_rate"] =
      Ratio(static_cast<double>(memo_hits), static_cast<double>(memo_lookups));
  m["exec.match_cache_hit_rate"] = Ratio(static_cast<double>(match_hits),
                                         static_cast<double>(match_lookups));
  m["exec.render_us"] = Quantile(render_us, 0.5);
  m["exec.rank_us"] = Quantile(rank_us, 0.5);
  m["net.encode_us"] = Quantile(encode_us, 0.5);
  m["net.decode_us"] = Quantile(decode_us, 0.5);
  m["net.request_bytes"] = Quantile(request_bytes, 0.5);
  m["net.response_bytes"] = Quantile(response_bytes, 0.5);
  const double untraced_p50 = Quantile(untraced_us, 0.5);
  m["obs.trace_overhead_frac"] =
      untraced_p50 > 0 ? Quantile(traced_us, 0.5) / untraced_p50 - 1.0 : 0.0;
  m["obs.unattributed_frac"] =
      Ratio(unattributed_total, effective_request_total);
  return out;
}

}  // namespace qbebench
