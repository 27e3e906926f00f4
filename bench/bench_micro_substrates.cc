// Microbenchmarks (google-benchmark) for the substrates behind the query
// discovery system: tokenizer, FTS index build/probe, master column index,
// the semijoin executor, subtree enumeration, candidate generation and
// filter-universe construction (a light IMDB ET and a heavy CUST one).
// These quantify the paper's claim that candidate generation is "a
// negligible fraction of the overall query processing time" relative to
// verification.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/candidate_gen.h"
#include "core/filter_universe.h"
#include "datagen/cust_like.h"
#include "datagen/et_gen.h"
#include "datagen/imdb_like.h"
#include "datagen/retailer.h"
#include "exec/executor.h"
#include "exec/match_cache.h"
#include "kernels/kernels.h"
#include "schema/subtree_enum.h"
#include "text/tokenizer.h"
#include "util/rng.h"

namespace qbe {
namespace {

const Database& ImdbDb() {
  static const Database& db = *new Database([] {
    ImdbConfig config;
    config.scale = 0.5;
    return MakeImdbLikeDatabase(config);
  }());
  return db;
}

const SchemaGraph& ImdbGraph() {
  static const SchemaGraph& graph = *new SchemaGraph(ImdbDb());
  return graph;
}

ExampleTable NameTitleEt() {
  ExampleTable et({"A", "B"});
  et.AddRow({"mike jones", "the silent"});
  et.AddRow({"mary smith", "the golden"});
  return et;
}

void BM_Tokenize(benchmark::State& state) {
  std::string text = "The Quick Brown Fox, Jumps Over the Lazy Dog 42!";
  for (auto _ : state) {
    benchmark::DoNotOptimize(Tokenize(text));
  }
}
BENCHMARK(BM_Tokenize);

void BM_InvertedIndexBuild(benchmark::State& state) {
  const Database& db = ImdbDb();
  int person = db.RelationIdByName("person");
  const TextColumnStore& cells = db.relation(person).TextColumn(1);
  for (auto _ : state) {
    InvertedIndex index;
    index.Build(cells);
    benchmark::DoNotOptimize(index.num_rows());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(cells.size()));
}
BENCHMARK(BM_InvertedIndexBuild);

void BM_PhraseMatch(benchmark::State& state) {
  const Database& db = ImdbDb();
  int person = db.RelationIdByName("person");
  const InvertedIndex& index = db.TextIndex(ColumnRef{person, 1});
  std::vector<std::string> phrase = {"mike", "jones"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.MatchPhrase(phrase));
  }
}
BENCHMARK(BM_PhraseMatch);

void BM_PhraseMatchIds(benchmark::State& state) {
  // The executor hot path: phrase tokens resolved to dictionary ids once
  // per request, probes reuse one output buffer — no per-probe allocation.
  const Database& db = ImdbDb();
  int person = db.RelationIdByName("person");
  const InvertedIndex& index = db.TextIndex(ColumnRef{person, 1});
  std::vector<uint32_t> ids = db.token_dict().IdsOf({"mike", "jones"});
  std::vector<uint32_t> rows;
  for (auto _ : state) {
    index.MatchPhraseIdsInto(ids, &rows);
    benchmark::DoNotOptimize(rows.data());
  }
}
BENCHMARK(BM_PhraseMatchIds);

void BM_TokenRowCount(benchmark::State& state) {
  // O(1) precomputed distinct-row count, by id and through the string
  // compat wrapper (heterogeneous dictionary lookup, no string built).
  const Database& db = ImdbDb();
  int person = db.RelationIdByName("person");
  const InvertedIndex& index = db.TextIndex(ColumnRef{person, 1});
  uint32_t id = db.token_dict().Find("mike");
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.TokenRowCountId(id));
    benchmark::DoNotOptimize(index.TokenRowCount("mike"));
  }
}
BENCHMARK(BM_TokenRowCount);

void BM_ColumnIndexLookup(benchmark::State& state) {
  const Database& db = ImdbDb();
  std::vector<std::string> phrase = {"mike"};
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.column_index().ColumnsContaining(phrase));
  }
}
BENCHMARK(BM_ColumnIndexLookup);

/// person <- cast_info -> title with two predicates: the existence query
/// both executor benches probe.
struct ExistsProbe {
  JoinTree tree;
  std::vector<PhrasePredicate> predicates;
};

ExistsProbe CastInfoProbe(const Database& db, const SchemaGraph& graph) {
  int person = db.RelationIdByName("person");
  int cast_info = db.RelationIdByName("cast_info");
  int title = db.RelationIdByName("title");
  ExistsProbe probe{JoinTree::Single(cast_info), {}};
  for (int e : graph.IncidentEdges(cast_info)) {
    int other = graph.OtherEnd(e, cast_info);
    if ((other == person && !probe.tree.verts.Test(person)) ||
        (other == title && !probe.tree.verts.Test(title))) {
      probe.tree = ExtendTree(probe.tree, graph, e);
    }
  }
  probe.predicates = {{ColumnRef{person, 1}, {"mike"}, false},
                      {ColumnRef{title, 1}, {"silent"}, false}};
  return probe;
}

void BM_ExecutorExists(benchmark::State& state) {
  // No match table: every call resolves the tokens and matches both
  // phrases against the posting lists.
  const Database& db = ImdbDb();
  const SchemaGraph& graph = ImdbGraph();
  Executor exec(db, graph);
  const ExistsProbe probe = CastInfoProbe(db, graph);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Exists(probe.tree, probe.predicates));
  }
}
BENCHMARK(BM_ExecutorExists);

void BM_ExecutorExistsCached(benchmark::State& state) {
  // Same probe with pre-resolved predicate ids and the request's match
  // table, as DiscoverQueries runs it: after the first iteration every
  // SeedNode probe is a table hit.
  const Database& db = ImdbDb();
  const SchemaGraph& graph = ImdbGraph();
  Executor exec(db, graph);
  ExistsProbe probe = CastInfoProbe(db, graph);
  for (PhrasePredicate& pred : probe.predicates) {
    pred.ids = db.token_dict().IdsOf(pred.tokens);
  }
  MatchCache match_table;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        exec.Exists(probe.tree, probe.predicates, nullptr, &match_table));
  }
}
BENCHMARK(BM_ExecutorExistsCached);

void BM_SubtreeEnumeration(benchmark::State& state) {
  const SchemaGraph& graph = ImdbGraph();
  int max_size = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(EnumerateSubtrees(graph, max_size));
  }
}
BENCHMARK(BM_SubtreeEnumeration)->Arg(3)->Arg(4)->Arg(5);

void BM_CandidateGeneration(benchmark::State& state) {
  const Database& db = ImdbDb();
  const SchemaGraph& graph = ImdbGraph();
  ExampleTable et = NameTitleEt();
  CandidateGenOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateCandidates(db, graph, et, options));
  }
}
BENCHMARK(BM_CandidateGeneration);

/// Times BuildFilterUniverse and reports the universe's size: `dep_edges`
/// counts both directions of every sub-filter pair (the qbebench
/// core.filter_deps figure).
void RunFilterUniverseBuild(benchmark::State& state, const SchemaGraph& graph,
                            const ExampleTable& et,
                            const std::vector<CandidateQuery>& candidates) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildFilterUniverse(graph, et, candidates));
  }
  const FilterUniverse universe = BuildFilterUniverse(graph, et, candidates);
  double dep_edges = 0;
  for (int f = 0; f < universe.num_filters(); ++f) {
    dep_edges += static_cast<double>(universe.supers_of[f].size() +
                                     universe.subs_of[f].size());
  }
  state.counters["candidates"] = static_cast<double>(candidates.size());
  state.counters["filters"] = universe.num_filters();
  state.counters["classes"] = universe.num_classes();
  state.counters["dep_edges"] = dep_edges;
}

void BM_FilterUniverseBuild(benchmark::State& state) {
  const SchemaGraph& graph = ImdbGraph();
  ExampleTable et = NameTitleEt();
  RunFilterUniverseBuild(state, graph, et,
                         GenerateCandidates(ImdbDb(), graph, et, {}));
}
BENCHMARK(BM_FilterUniverseBuild);

/// A heavy CUST ET (more than 4096 candidates), the kind that dominates the
/// qbebench cust_fresh tail: the first one drawn from the qbebench matrix
/// set with the Table 3 defaults.
void BM_FilterUniverseBuildCust(benchmark::State& state) {
  static const Database& db = *new Database(MakeCustLikeDatabase());
  static const SchemaGraph& graph = *new SchemaGraph(db);
  const Executor exec(db, graph);
  const EtSource source(db, graph, exec, /*seed=*/20140622);
  Rng rng(1);
  for (int draw = 0; draw < 2000; ++draw) {
    std::optional<ExampleTable> et =
        source.Sample(EtParams{}, draw % source.num_matrices(), rng);
    if (!et) continue;
    std::vector<CandidateQuery> candidates =
        GenerateCandidates(db, graph, *et, {});
    if (candidates.size() <= 4096) continue;
    RunFilterUniverseBuild(state, graph, *et, candidates);
    return;
  }
  state.SkipWithError("no CUST ET with more than 4096 candidates");
}
BENCHMARK(BM_FilterUniverseBuildCust)->Unit(benchmark::kMillisecond);

void BM_RetailerDiscoveryEndToEnd(benchmark::State& state) {
  const Database& db = *new Database(MakeRetailerDatabase());
  const SchemaGraph& graph = *new SchemaGraph(db);
  ExampleTable et = MakeFigure2ExampleTable();
  CandidateGenOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateCandidates(db, graph, et, options));
  }
}
BENCHMARK(BM_RetailerDiscoveryEndToEnd);

// ---------------------------------------------------------------------------
// SIMD kernel layer A/B (DESIGN.md §14): each kernel registered once per
// dispatch level this CPU supports, named BM_Kernel*<level>, so one
// google-benchmark run carries the scalar-vs-AVX2 comparison.
// Levels are forced in-process (the QBE_KERNEL equivalents); every
// benchmark restores the previous level on exit.

std::vector<uint32_t> SortedUnique32(uint64_t seed, size_t n,
                                     uint32_t universe) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<uint32_t> dist(0, universe);
  std::vector<uint32_t> v(n);
  for (auto& x : v) x = dist(rng);
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

class ScopedLevel {
 public:
  explicit ScopedLevel(KernelLevel level) : prev_(ActiveKernelLevel()) {
    ForceKernelLevel(level);
  }
  ~ScopedLevel() { ForceKernelLevel(prev_); }

 private:
  KernelLevel prev_;
};

void BM_KernelIntersectDense(benchmark::State& state, KernelLevel level) {
  ScopedLevel scoped(level);
  // 4k x 4k, ~25% overlap: the dense CSR-posting / row-set shape. Raw
  // kernel into a preallocated buffer — wrapper overhead is identical
  // across levels and benched separately via BM_KernelIntersectWrapped.
  std::vector<uint32_t> a = SortedUnique32(1, 4096, 16384);
  std::vector<uint32_t> b = SortedUnique32(2, 4096, 16384);
  std::vector<uint32_t> out(std::min(a.size(), b.size()) + kIntersectPad32);
  const KernelOps& ops = ActiveKernelOps();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ops.intersect_u32(a.data(), a.size(), b.data(),
                                               b.size(), out.data()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.size() + b.size()));
}

void BM_KernelIntersectWrapped(benchmark::State& state, KernelLevel level) {
  ScopedLevel scoped(level);
  // Same shape through the product-facing wrapper (gallop check + resize).
  std::vector<uint32_t> a = SortedUnique32(1, 4096, 16384);
  std::vector<uint32_t> b = SortedUnique32(2, 4096, 16384);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    kernels::IntersectSortedInto(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.size() + b.size()));
}

void BM_KernelIntersectSkewed(benchmark::State& state, KernelLevel level) {
  ScopedLevel scoped(level);
  // 64 x 16k: past the 16x threshold, so this times the gallop path (same
  // at every level — the A/B shows the hybrid never regresses skew).
  std::vector<uint32_t> small = SortedUnique32(3, 64, 1u << 20);
  std::vector<uint32_t> large = SortedUnique32(4, 16384, 1u << 20);
  std::vector<uint32_t> out;
  for (auto _ : state) {
    kernels::IntersectSortedInto(small, large, &out);
    benchmark::DoNotOptimize(out.data());
  }
}

void BM_KernelPhraseShift(benchmark::State& state, KernelLevel level) {
  ScopedLevel scoped(level);
  // Dense shifted-span merge, packed row<<32|pos as in the CSR index.
  std::vector<uint64_t> cand, span;
  for (uint32_t v : SortedUnique32(5, 2048, 1u << 16)) {
    cand.push_back((uint64_t{v >> 4} << 32) | (v & 15));
  }
  for (uint32_t v : SortedUnique32(6, 4096, 1u << 16)) {
    span.push_back((uint64_t{v >> 4} << 32) | (v & 15));
  }
  std::sort(cand.begin(), cand.end());
  std::sort(span.begin(), span.end());
  std::vector<uint64_t> acc, scratch;
  for (auto _ : state) {
    acc = cand;
    kernels::IntersectShiftedInPlace(&acc, span, 1, &scratch);
    benchmark::DoNotOptimize(acc.data());
  }
}

void BM_BitmapSemijoin(benchmark::State& state) {
  // The executor's semijoin bitmap cycle: clear, batch-set, emit. Scalar at
  // every dispatch level, so registered once.
  std::vector<uint32_t> rows = SortedUnique32(7, 8192, 65535);
  std::vector<uint64_t> bits;
  std::vector<uint32_t> emitted;
  for (auto _ : state) {
    kernels::BitmapClear(&bits, 65536);
    kernels::BitmapSetBatch(&bits, rows);
    kernels::BitmapEmitInto(bits, &emitted);
    benchmark::DoNotOptimize(emitted.data());
  }
  state.SetItemsProcessed(state.iterations() * 65536);
}
BENCHMARK(BM_BitmapSemijoin);

/// Registers the per-level kernel benchmarks for every supported level.
/// Static-init registration, same as the BENCHMARK macros above.
int RegisterKernelBenches() {
  for (KernelLevel level : {KernelLevel::kScalar, KernelLevel::kAvx2}) {
    if (!KernelLevelSupported(level)) continue;
    const std::string suffix = std::string("<") + KernelLevelName(level) + ">";
    benchmark::RegisterBenchmark(
        ("BM_KernelIntersectDense" + suffix).c_str(),
        BM_KernelIntersectDense, level);
    benchmark::RegisterBenchmark(
        ("BM_KernelIntersectWrapped" + suffix).c_str(),
        BM_KernelIntersectWrapped, level);
    benchmark::RegisterBenchmark(
        ("BM_KernelIntersectSkewed" + suffix).c_str(),
        BM_KernelIntersectSkewed, level);
    benchmark::RegisterBenchmark(("BM_KernelPhraseShift" + suffix).c_str(),
                                 BM_KernelPhraseShift, level);
  }
  return 0;
}

const int kKernelBenchesRegistered = RegisterKernelBenches();

}  // namespace
}  // namespace qbe

BENCHMARK_MAIN();
