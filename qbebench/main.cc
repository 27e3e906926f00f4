// qbe_e2ebench: the repository's canonical end-to-end discovery benchmark.
//
//   qbe_e2ebench --workload NAME --seed N --seconds S --trace 0|1
//
// The unit of work is one discovery request: an example table (ET) goes in,
// ranked SQL comes out. The program is driven from outside through
// DiscoveryService (in process) and NetClient (loopback wire) with default
// DiscoveryOptions. Every answer is checked against a direct DiscoverQueries
// call made before timing. The last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}; --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer metrics (see replay.h).
//
// Workloads (why each exists is in BENCHMARK.json):
//   cust_fresh         CUST scale 1, closed loop, 4 clients, distinct ETs.
//   imdb8_fresh        IMDB scale 8, closed loop, 4 clients, distinct ETs.
//   imdb_skew_wire_rw  IMDB scale 1 with a WAL and background compaction;
//                      closed-loop reads, kPipelineDepth in flight on each of
//                      3 loopback connections, from a NURand-skewed pool of
//                      kPoolSize ETs, plus one appender at kAppendRate.

#include <malloc.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_lib.h"
#include "core/discovery.h"
#include "datagen/cust_like.h"
#include "datagen/et_gen.h"
#include "datagen/imdb_like.h"
#include "exec/executor.h"
#include "kernels/kernels.h"
#include "net/client.h"
#include "net/server.h"
#include "replay.h"
#include "schema/schema_graph.h"
#include "service/discovery_service.h"
#include "snapshot/snapshot.h"
#include "storage/database.h"
#include "util/rng.h"

#ifndef QBEBENCH_CXX_FLAGS
#define QBEBENCH_CXX_FLAGS "unknown"
#endif

namespace qbebench {
namespace {

using Clock = std::chrono::steady_clock;

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

// Set-up is repeated and its median reported, so one slow open does not
// move setup_s.
constexpr int kSetupRepeats = 15;
constexpr int kClients = 4;      // closed loop
constexpr int kConnections = 3;  // wire workload
constexpr size_t kPipelineDepth = 4;  // reads in flight per connection
// Skewed pool: kPoolSize distinct ETs, drawn once with kMatrixSeed so every
// run reads the same pool; --seed drives the read sequence
// NURand(kNURandA, 0, kPoolSize - 1) with the run constant kNURandC.
constexpr int kPoolSize = 64;
constexpr int64_t kNURandA = 15;
constexpr int64_t kNURandC = 7;
// Reads drawn per measured second for the wire workload; the pipelined
// connections complete ~5500/s on a 4-vCPU VM, so a run never uses them all.
constexpr double kMaxWireReadsPerSecond = 12000.0;
constexpr double kAppendRate = 10.0;
constexpr size_t kCompactAfterOps = 10;
// Seed of the EtSource matrix choice (which join graphs ETs are cut from).
// It is part of the workload's definition and stays fixed; --seed draws the
// ETs from those matrices.
constexpr uint64_t kMatrixSeed = 20140622;

struct Workload {
  const char* name;
  bool cust;
  double scale;
  bool skew_wire_rw;
  // Closed loop: distinct ETs generated per measured second. The loop
  // stops early, and says so, if a run ever uses them all.
  double ets_per_second;
  // Closed loop: the per-mille share of each candidate-count stratum (see
  // StratumOf) in the stream. They are the shares at which EtSource draws
  // them for this matrix set, measured over 6656 (CUST) and 8000 (IMDB x8)
  // draws. CUST's last stratum holds ETs with ~9300 candidates, which cost
  // ~100x a light one.
  std::array<int, kStrata> strata;
  // ETs replayed layer by layer in the traced run.
  int replay_ets;
};

const Workload kWorkloads[] = {
    {"cust_fresh", true, 1.0, false, 300, {586, 333, 67, 14}, 150},
    {"imdb8_fresh", false, 8.0, false, 1000, {849, 138, 13, 0}, 120},
    {"imdb_skew_wire_rw", false, 1.0, true, 0, {0, 0, 0, 0}, 400},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

bool ParseNumber(const std::string& text, uint64_t* out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end && !text.empty();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) args->workload = &w;
      }
      if (args->workload == nullptr) return false;
    } else if (flag == "--seed") {
      if (!ParseNumber(value, &args->seed)) return false;
    } else if (flag == "--seconds") {
      uint64_t seconds = 0;
      if (!ParseNumber(value, &seconds) || seconds < 1 || seconds > 3600) {
        return false;
      }
      args->seconds = static_cast<int>(seconds);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && args->workload != nullptr;
}

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double RssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

qbe::Database MakeDatabase(const Workload& w) {
  if (w.cust) {
    qbe::CustConfig config;
    config.scale = w.scale;
    return qbe::MakeCustLikeDatabase(config);
  }
  qbe::ImdbConfig config;
  config.scale = w.scale;
  return qbe::MakeImdbLikeDatabase(config);
}

/// Generates the workload's database in a child process and writes it as a
/// snapshot, so generation never shows in this process's RSS.
bool WriteSnapshotUntimed(const Workload& w, const std::string& path) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    std::string error;
    const bool ok = qbe::WriteSnapshot(MakeDatabase(w), path, &error);
    if (!ok) std::fprintf(stderr, "snapshot write failed: %s\n", error.c_str());
    _exit(ok ? 0 : 1);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// Everything fixed before timing starts.
struct Inputs {
  std::vector<qbe::ExampleTable> ets;  // fresh: the stream; skew: the pool
  std::vector<Answer> expected;        // parallel to ets
  std::vector<int> draws;              // skew: pool index of each read
  int append_rel = -1;                 // skew: relation appended to
  std::vector<qbe::ColumnType> append_types;
};

/// Distinct ETs drawn with the Table 3 defaults, rotating over the
/// EtSource matrices.
class DistinctEts {
 public:
  DistinctEts(const qbe::EtSource& source, uint64_t seed)
      : source_(source), rng_(seed) {}

  /// Appends `count` ETs not drawn before; false if the source runs dry.
  bool Draw(size_t count, std::vector<qbe::ExampleTable>* out) {
    qbe::EtParams params;
    const size_t want = out->size() + count;
    for (size_t tries = 0; out->size() < want && tries < count * 50 + 1000;
         ++tries) {
      std::optional<qbe::ExampleTable> et = source_.Sample(
          params, static_cast<int>(attempt_++ % source_.num_matrices()),
          rng_);
      if (!et || !et->IsWellFormed()) continue;
      if (!seen_.insert(EtKey(*et)).second) continue;
      out->push_back(std::move(*et));
    }
    return out->size() == want;
  }

 private:
  const qbe::EtSource& source_;
  qbe::Rng rng_;
  std::unordered_set<std::string> seen_;
  size_t attempt_ = 0;
};

/// Expected answers of ets[from..]: a direct DiscoverQueries call per ET,
/// default options, no cache, spread over kClients threads. Also collects
/// the relations any answer projects.
bool ComputeExpected(const qbe::Database& db,
                     const std::vector<qbe::ExampleTable>& ets, size_t from,
                     std::vector<Answer>* expected, std::set<int>* projected) {
  expected->resize(ets.size());
  std::vector<std::set<int>> used(kClients);
  std::atomic<size_t> next{from};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = next++; i < ets.size(); i = next++) {
        qbe::DiscoveryResult r = qbe::DiscoverQueries(db, ets[i]);
        if (!r.ok()) failed = true;
        for (const qbe::DiscoveredQuery& q : r.queries) {
          for (const qbe::ColumnRef& col : q.query.projection) {
            used[t].insert(col.rel);
          }
        }
        (*expected)[i] = AnswerOf(r);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& s : used) projected->insert(s.begin(), s.end());
  return !failed;
}

bool PrepareInputs(const Workload& w, const Args& args,
                   const std::string& snapshot, Inputs* in,
                   std::string* error) {
  std::optional<qbe::Database> db = qbe::Database::OpenSnapshot(snapshot, error);
  if (!db) return false;
  qbe::SchemaGraph graph(*db);
  qbe::Executor exec(*db, graph);
  qbe::EtSource source(*db, graph, exec, kMatrixSeed);
  DistinctEts draw(source, w.skew_wire_rw ? kMatrixSeed : args.seed);
  std::set<int> projected;
  const char* kDry = "EtSource could not supply enough distinct ETs";
  const char* kFailed = "a direct DiscoverQueries call failed on a generated ET";

  if (w.skew_wire_rw) {
    if (!draw.Draw(kPoolSize, &in->ets)) {
      *error = kDry;
      return false;
    }
    if (!ComputeExpected(*db, in->ets, 0, &in->expected, &projected)) {
      *error = kFailed;
      return false;
    }
  } else {
    // The fresh stream, stratified by candidate count: without it a run's
    // timings would swing with how many costly ETs the seed happened to put
    // in the part of the stream a run reaches.
    const size_t total =
        static_cast<size_t>(std::ceil(w.ets_per_second * args.seconds));
    const std::vector<int> plan = StreamPlan(total, w.strata);
    std::array<size_t, kStrata> need{};
    for (int s : plan) ++need[s];
    std::vector<qbe::ExampleTable> drawn;
    std::vector<Answer> answers;
    std::array<std::vector<size_t>, kStrata> by_stratum;
    auto short_of_need = [&] {
      for (int s = 0; s < kStrata; ++s) {
        if (by_stratum[s].size() < need[s]) return true;
      }
      return false;
    };
    while (short_of_need()) {
      const size_t from = drawn.size();
      if (drawn.size() > total * 20 || !draw.Draw(512, &drawn)) {
        *error = kDry;
        return false;
      }
      if (!ComputeExpected(*db, drawn, from, &answers, &projected)) {
        *error = kFailed;
        return false;
      }
      for (size_t i = from; i < drawn.size(); ++i) {
        by_stratum[StratumOf(answers[i].num_candidates)].push_back(i);
      }
    }
    std::array<size_t, kStrata> used{};
    for (int s : plan) {
      const size_t i = by_stratum[s][used[s]++];
      in->ets.push_back(std::move(drawn[i]));
      in->expected.push_back(std::move(answers[i]));
    }
    return true;
  }

  NURand nurand(args.seed, kNURandA, 0, kPoolSize - 1, kNURandC);
  const size_t reads =
      static_cast<size_t>(kMaxWireReadsPerSecond * args.seconds);
  for (size_t i = 0; i < reads; ++i) {
    in->draws.push_back(static_cast<int>(nurand.Next()));
  }

  // Appends go to a relation no expected answer projects, with fresh tokens
  // and id values that match no existing key. Such a row joins nothing and
  // matches no ET cell, so every expected answer (scores included, which
  // read row counts of projected relations only) stays valid under writes.
  for (int rel = 0; rel < db->num_relations() && in->append_rel < 0; ++rel) {
    if (projected.count(rel) != 0) continue;
    bool has_text = false;
    for (const auto& col : db->relation(rel).columns()) {
      has_text = has_text || col.type == qbe::ColumnType::kText;
    }
    if (has_text) in->append_rel = rel;
  }
  if (in->append_rel < 0) {
    *error = "every relation with text is projected by an expected answer";
    return false;
  }
  for (const auto& col : db->relation(in->append_rel).columns()) {
    in->append_types.push_back(col.type);
  }
  return true;
}

/// Letters-only token that no generated text contains.
std::string FreshToken(uint64_t n) {
  std::string token = "qbebenchrow";
  do {
    token += static_cast<char>('a' + n % 26);
    n /= 26;
  } while (n != 0);
  return token;
}

std::vector<qbe::Value> AppendRow(const Inputs& in, uint64_t n,
                                  size_t* user_bytes) {
  std::vector<qbe::Value> values;
  *user_bytes = 0;
  for (size_t c = 0; c < in.append_types.size(); ++c) {
    if (in.append_types[c] == qbe::ColumnType::kId) {
      values.emplace_back(static_cast<int64_t>((int64_t{1} << 40) +
                                               static_cast<int64_t>(n)));
      *user_bytes += 8;
    } else {
      std::string text = FreshToken(n) + " " + FreshToken(n + c + 1);
      *user_bytes += text.size();
      values.emplace_back(std::move(text));
    }
  }
  return values;
}

/// One served instance: the service and, for the wire workload, its server.
struct Serving {
  std::unique_ptr<qbe::DiscoveryService> service;
  std::unique_ptr<qbe::NetServer> server;

  void Stop() {
    if (server) server->Stop();
    if (service) service->Shutdown();
    server.reset();
    service.reset();
  }
};

struct SetupTimes {
  std::vector<double> setup_s;
  std::vector<double> open_ms;
};

bool SetUp(const Workload& w, const std::string& snapshot,
           const std::string& work, Serving* serving, SetupTimes* times,
           std::string* error) {
  const std::string wal = work + "/skew.qbel";
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    serving->Stop();
    std::filesystem::remove(wal);
    qbe::ServiceOptions options;
    if (w.skew_wire_rw) {
      options.wal_path = wal;
      options.compact_after_ops = kCompactAfterOps;
      options.compact_snapshot_path = work + "/skew_compacted.qbes";
    }
    const auto start = Clock::now();
    std::optional<qbe::Database> db =
        qbe::Database::OpenSnapshot(snapshot, error);
    if (!db) return false;
    times->open_ms.push_back(Seconds(Clock::now() - start) * 1e3);
    serving->service =
        std::make_unique<qbe::DiscoveryService>(std::move(*db), options);
    if (w.skew_wire_rw) {
      serving->server = std::make_unique<qbe::NetServer>(serving->service.get());
    }
    times->setup_s.push_back(Seconds(Clock::now() - start));
    if (!serving->service->wal_error().empty()) {
      *error = "WAL attach failed: " + serving->service->wal_error();
      return false;
    }
    if (serving->server && !serving->server->ok()) {
      *error = "net server: " + serving->server->error();
      return false;
    }
  }
  return true;
}

/// What the measured phase observed.
struct LoadResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t rejected = 0;
  std::string mismatch;
  double elapsed_s = 0;
  // Successful requests that completed inside the measured window, and the
  // window's length: the basis of throughput_rps.
  int64_t ok_in_window = 0;
  double window_s = 0;
  bool exhausted = false;  // closed loop ran out of distinct ETs
  std::vector<double> latency_ms, queue_ms, exec_ms;
  std::vector<double> net_overhead_ms;
  std::vector<double> append_us;
  double wal_bytes = 0, wal_user_bytes = 0;
};

/// Counts one read: a failure if the service did not answer "ok", a
/// mismatch (and failure) if its answer differs from the expected one.
void Record(const Answer& expected, const Answer& got, double latency_s,
            double queue_s, LoadResult* out) {
  if (got.status != "ok") {
    if (got.status == "rejected") ++out->rejected;
    ++out->failed;
    return;
  }
  const std::string why = Mismatch(expected, got);
  if (!why.empty()) {
    if (out->mismatch.empty()) out->mismatch = why;
    ++out->failed;
    return;
  }
  out->queue_ms.push_back(queue_s * 1e3);
  out->exec_ms.push_back((latency_s - queue_s) * 1e3);
}

void Merge(LoadResult&& part, LoadResult* into) {
  into->attempted += part.attempted;
  into->failed += part.failed;
  into->ok_in_window += part.ok_in_window;
  into->rejected += part.rejected;
  into->exhausted = into->exhausted || part.exhausted;
  if (into->mismatch.empty()) into->mismatch = part.mismatch;
  auto append = [](std::vector<double>& to, const std::vector<double>& from) {
    to.insert(to.end(), from.begin(), from.end());
  };
  append(into->latency_ms, part.latency_ms);
  append(into->queue_ms, part.queue_ms);
  append(into->exec_ms, part.exec_ms);
  append(into->net_overhead_ms, part.net_overhead_ms);
  append(into->append_us, part.append_us);
  into->wal_bytes += part.wal_bytes;
  into->wal_user_bytes += part.wal_user_bytes;
}

/// Appends rows at kAppendRate from `start` until `stop`, timing each
/// Append call and the WAL growth it causes.
void RunAppender(qbe::DiscoveryService& service, const Inputs& in,
                 const std::string& wal_path, Clock::time_point start,
                 Clock::time_point stop, LoadResult* part) {
  off_t wal_size = 0;
  for (uint64_t j = 0;; ++j) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(j / kAppendRate));
    if (due >= stop) break;
    std::this_thread::sleep_until(due);
    size_t user_bytes = 0;
    std::vector<qbe::Value> row = AppendRow(in, j, &user_bytes);
    std::string error;
    const auto t0 = Clock::now();
    const bool ok = service.Append(in.append_rel, std::move(row), &error);
    const double us = Seconds(Clock::now() - t0) * 1e6;
    ++part->attempted;
    if (!ok) {
      ++part->failed;
      if (part->mismatch.empty()) part->mismatch = "append failed: " + error;
      continue;
    }
    part->append_us.push_back(us);
    struct stat st;
    if (stat(wal_path.c_str(), &st) == 0) {
      // A compaction may truncate the log between two appends; only
      // growth observed across one append is attributed to it.
      if (st.st_size > wal_size) {
        part->wal_bytes += static_cast<double>(st.st_size - wal_size);
        part->wal_user_bytes += static_cast<double>(user_bytes);
      }
      wal_size = st.st_size;
    }
  }
}

LoadResult Total(std::vector<LoadResult>& parts, Clock::time_point start,
                 int seconds) {
  LoadResult total;
  total.elapsed_s = Seconds(Clock::now() - start);
  total.window_s = std::min(total.elapsed_s, static_cast<double>(seconds));
  for (LoadResult& part : parts) Merge(std::move(part), &total);
  return total;
}

/// In process: kClients closed-loop clients call DiscoveryService::Discover
/// over the fresh ET stream.
LoadResult RunInProcess(qbe::DiscoveryService& service, const Inputs& in,
                        int seconds) {
  std::atomic<size_t> next{0};
  const auto start = Clock::now();
  const auto stop = start + std::chrono::seconds(seconds);
  std::vector<LoadResult> parts(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LoadResult& part = parts[c];
      while (Clock::now() < stop) {
        const size_t i = next++;
        if (i >= in.ets.size()) {
          part.exhausted = true;
          break;
        }
        const auto t0 = Clock::now();
        qbe::ServiceResponse response = service.Discover(in.ets[i]);
        const auto t1 = Clock::now();
        ++part.attempted;
        Record(in.expected[i], AnswerOf(response), response.latency_seconds,
               response.queue_seconds, &part);
        if (!response.ok()) continue;
        part.latency_ms.push_back(Seconds(t1 - t0) * 1e3);
        if (t1 <= stop) ++part.ok_in_window;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return Total(parts, start, seconds);
}

/// Over the wire: kConnections NetClient connections, each keeping
/// kPipelineDepth reads in flight (a closed loop with pipelining), reads
/// drawn from the pool by the NURand sequence; plus the appender.
LoadResult RunWire(Serving& serving, const Inputs& in,
                   const std::string& wal_path, int seconds) {
  std::atomic<size_t> next{0};
  const auto start = Clock::now();
  const auto stop = start + std::chrono::seconds(seconds);
  std::vector<LoadResult> parts(kConnections + 1);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& part = parts[c];
      std::vector<qbe::WireRequest> pool;
      for (const qbe::ExampleTable& et : in.ets) {
        pool.push_back(qbe::WireRequest::FromExampleTable(et, 0));
      }
      qbe::NetClient client("127.0.0.1", serving.server->port());
      std::deque<std::pair<size_t, Clock::time_point>> outstanding;
      bool dead = false;
      auto fail = [&](const std::string& why) {
        dead = true;
        part.failed += static_cast<int64_t>(outstanding.size());
        outstanding.clear();
        if (part.mismatch.empty()) part.mismatch = why + client.error();
      };
      // Sends the next read of the sequence; false when none is left.
      auto send_next = [&] {
        const size_t i = next++;
        if (i >= in.draws.size()) {
          part.exhausted = true;
          return false;
        }
        qbe::WireRequest& request = pool[in.draws[i]];
        request.id = i + 1;
        ++part.attempted;
        outstanding.emplace_back(i, Clock::now());
        if (!client.Send(request)) fail("wire send failed: ");
        return !dead;
      };
      if (!client.ok()) fail("wire connect failed: ");
      while (!dead && outstanding.size() < kPipelineDepth &&
             Clock::now() < stop && send_next()) {
      }
      while (!dead && !outstanding.empty()) {
        qbe::ClientReply wire;
        if (!client.Receive(&wire)) {
          fail("wire receive failed: ");
          break;
        }
        const auto received = Clock::now();
        const auto [i, sent] = outstanding.front();
        outstanding.pop_front();
        Answer got;
        double latency_s = 0, queue_s = 0;
        if (wire.is_error) {
          got.status = qbe::WireFaultName(wire.error.fault);
        } else {
          got = AnswerOf(wire.response);
          if (wire.response.id != i + 1 && part.mismatch.empty()) {
            part.mismatch = "wire reply out of order";
          }
          latency_s = wire.response.latency_seconds;
          queue_s = wire.response.queue_seconds;
        }
        Record(in.expected[in.draws[i]], got, latency_s, queue_s, &part);
        if (got.status == "ok") {
          part.latency_ms.push_back(Seconds(received - sent) * 1e3);
          part.net_overhead_ms.push_back(
              (Seconds(received - sent) - latency_s) * 1e3);
          if (received <= stop) ++part.ok_in_window;
        }
        if (received < stop) send_next();
      }
    });
  }
  threads.emplace_back([&] {
    RunAppender(*serving.service, in, wal_path, start, stop,
                &parts[kConnections]);
  });
  for (std::thread& t : threads) t.join();
  return Total(parts, start, seconds);
}

std::string FormatMetrics(const std::map<std::string, double>& values,
                          const std::map<std::string, std::string>& units) {
  std::string json = "{";
  bool first = true;
  for (const auto& [name, value] : values) {
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g",
                  std::isfinite(value) ? value : 0.0);
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
            number + ", \"unit\": \"" + units.at(name) + "\"}";
    first = false;
  }
  return json + "}";
}

std::string UnitOf(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_us") || ends("_us.p99")) return "us";
  if (ends("_ms") || ends("_ms.p99")) return "ms";
  if (ends("_s")) return "s";
  if (ends("_mb")) return "MB";
  if (ends("_rps")) return "1/s";
  if (ends("_bytes")) return "bytes";
  if (ends("_frac") || ends("_rate") || ends("_per_user_byte")) return "ratio";
  return "count";
}

int Run(const Args& args) {
  const Workload& w = *args.workload;
  const std::string work = ".bench_build/qbebench-work";
  std::error_code ec;
  std::filesystem::create_directories(work, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", work.c_str(),
                 ec.message().c_str());
    return 1;
  }
  const std::string snapshot =
      work + "/" + (w.cust ? "cust" : "imdb") + "_x" +
      std::to_string(static_cast<int>(w.scale)) + ".qbes";
  if (!WriteSnapshotUntimed(w, snapshot)) {
    std::fprintf(stderr, "could not write %s\n", snapshot.c_str());
    return 1;
  }

  const auto prepare_start = Clock::now();
  Inputs in;
  std::string error;
  if (!PrepareInputs(w, args, snapshot, &in, &error)) {
    std::fprintf(stderr, "input preparation failed: %s\n", error.c_str());
    return 1;
  }
  malloc_trim(0);
  std::fprintf(stderr, "qbebench: %zu ETs and expected answers in %.2f s\n",
               in.ets.size(), Seconds(Clock::now() - prepare_start));

  Serving serving;
  SetupTimes setup;
  if (!SetUp(w, snapshot, work, &serving, &setup, &error)) {
    std::fprintf(stderr, "set-up failed: %s\n", error.c_str());
    serving.Stop();
    return 1;
  }

  LoadResult load =
      w.skew_wire_rw
          ? RunWire(serving, in, work + "/skew.qbel", args.seconds)
          : RunInProcess(*serving.service, in, args.seconds);
  // Free heap pages the allocator still holds would make RSS depend on
  // which requests happened to peak last; count what is live.
  malloc_trim(0);
  const double rss_mb = RssMb();
  std::fprintf(stderr,
               "qbebench: measured %.2f s, %lld attempted, %lld failed\n",
               load.elapsed_s, static_cast<long long>(load.attempted),
               static_cast<long long>(load.failed));
  qbe::DiscoveryService& service = *serving.service;
  const double hit_rate = service.cache().HitRate();
  const double cache_entries = static_cast<double>(service.cache().size());
  const uint64_t epochs = service.live().epoch();
  qbe::Histogram& compaction = service.metrics().GetHistogram(
      "compaction_seconds", qbe::ExponentialBuckets(1e-4, 2.0, 21));
  const double compactions =
      static_cast<double>(service.metrics().GetCounter("compactions").Value());
  const double compaction_ms = compaction.Mean() * 1e3;
  serving.Stop();

  const int64_t samples = static_cast<int64_t>(load.latency_ms.size());
  const double reportable = HighestReportablePercentile(samples);
  bool correct = load.mismatch.empty();
  if (!correct) {
    std::fprintf(stderr, "output check failed: %s\n", load.mismatch.c_str());
  }
  if (reportable < 99.0) {
    std::fprintf(stderr,
                 "only %lld latency samples: p99 needs at least 10 beyond "
                 "it (highest reportable percentile: %g)\n",
                 static_cast<long long>(samples), reportable);
    return 1;
  }

  std::map<std::string, double> metrics;
  if (!args.trace) {
    metrics["request_p50_ms"] = Quantile(load.latency_ms, 0.50);
    metrics["request_p99_ms"] = Quantile(load.latency_ms, 0.99);
    metrics["throughput_rps"] =
        load.window_s > 0 ? load.ok_in_window / load.window_s : 0.0;
    metrics["setup_s"] = Median(setup.setup_s);
    metrics["rss_mb"] = rss_mb;
  } else {
    std::optional<qbe::Database> db =
        qbe::Database::OpenSnapshot(snapshot, &error);
    if (!db) {
      std::fprintf(stderr, "replay open failed: %s\n", error.c_str());
      return 1;
    }
    std::vector<const qbe::ExampleTable*> ets;
    std::vector<const Answer*> expected;
    for (int i = 0; i < w.replay_ets; ++i) {
      const size_t k = w.skew_wire_rw
                           ? static_cast<size_t>(in.draws[i % in.draws.size()])
                           : static_cast<size_t>(i) % in.ets.size();
      ets.push_back(&in.ets[k]);
      expected.push_back(&in.expected[k]);
    }
    ReplayResult replay = ReplayLayers(*db, ets, expected);
    if (!replay.mismatch.empty()) {
      correct = false;
      std::fprintf(stderr, "output check failed: %s\n",
                   replay.mismatch.c_str());
    }
    metrics = std::move(replay.metrics);
    metrics["service.queue_ms"] = Quantile(load.queue_ms, 0.5);
    metrics["service.exec_ms"] = Quantile(load.exec_ms, 0.5);
    metrics["service.eval_cache_hit_rate"] = hit_rate;
    metrics["service.eval_cache_entries"] = cache_entries;
    metrics["service.rejected"] = static_cast<double>(load.rejected);
    metrics["service.failed_frac"] =
        load.attempted > 0
            ? static_cast<double>(load.failed) / load.attempted
            : 0.0;
    metrics["net.overhead_ms"] = Quantile(load.net_overhead_ms, 0.5);
    metrics["ingest.append_us"] = Quantile(load.append_us, 0.5);
    metrics["ingest.epochs"] = static_cast<double>(epochs);
    metrics["ingest.compactions"] = compactions;
    metrics["ingest.compaction_ms"] = compaction_ms;
    metrics["ingest.wal_bytes_per_user_byte"] =
        load.wal_user_bytes > 0 ? load.wal_bytes / load.wal_user_bytes : 0.0;
    metrics["snapshot.open_ms"] = Median(setup.open_ms);
  }

  std::map<std::string, std::string> units;
  for (const auto& [name, value] : metrics) units[name] = UnitOf(name);

  // Run description: everything needed to reproduce or judge the numbers.
  std::printf(
      "{\"info\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"compiler\": \"%s\", \"cxx_flags\": \"%s\", "
      "\"kernel_level\": \"%s\", \"latency_samples\": %lld, "
      "\"highest_reportable_percentile\": %g, \"ets\": %zu, "
      "\"ets_exhausted\": %s, \"setup_repeats\": %d, \"clients\": %d, "
      "\"connections\": %d, \"pipeline_depth\": %zu, "
      "\"strata_per_mille\": [%d, %d, %d, %d], \"append_rate_per_s\": "
      "%g, \"pool_size\": %d, \"nurand_a\": %lld, \"nurand_c\": %lld, "
      "\"append_relation\": %d, \"replay_ets\": %d, \"elapsed_s\": %.6f}}\n",
      w.name, static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, __VERSION__, QBEBENCH_CXX_FLAGS,
      qbe::KernelLevelName(qbe::ActiveKernelLevel()),
      static_cast<long long>(samples), reportable, in.ets.size(),
      load.exhausted ? "true" : "false", kSetupRepeats,
      w.skew_wire_rw ? 0 : kClients, w.skew_wire_rw ? kConnections : 0,
      w.skew_wire_rw ? kPipelineDepth : 0, w.strata[0], w.strata[1],
      w.strata[2], w.strata[3], w.skew_wire_rw ? kAppendRate : 0.0,
      w.skew_wire_rw ? kPoolSize : 0, static_cast<long long>(kNURandA),
      static_cast<long long>(kNURandC), in.append_rel,
      args.trace ? w.replay_ets : 0, load.elapsed_s);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(load.attempted),
              static_cast<long long>(load.failed),
              FormatMetrics(metrics, units).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace qbebench

int main(int argc, char** argv) {
  qbebench::Args args;
  if (!qbebench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: qbe_e2ebench --workload "
                 "cust_fresh|imdb8_fresh|imdb_skew_wire_rw --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  if (!qbebench::kOptimizedBuild) {
    std::fprintf(stderr,
                 "refusing to report numbers: built without optimisation or "
                 "without NDEBUG (flags: %s)\n",
                 QBEBENCH_CXX_FLAGS);
    return 3;
  }
  return qbebench::Run(args);
}
