// Concurrency differential suite for the live-ingestion subsystem
// (DESIGN.md §12): a writer appends (and tombstones) while three reader
// threads pin epochs and discover, and a compactor races both. Every
// pinned epoch's discovery output must be bit-identical to a from-scratch
// load of that epoch's materialized data — regardless of what published
// after the pin. Run under TSan in CI (label: slow, ingest).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/discovery.h"
#include "datagen/retailer.h"
#include "ingest/db_view.h"
#include "ingest/live_db.h"

namespace qbe {
namespace {

constexpr int kReaders = 3;

struct CanonQuery {
  std::string sql;
  int matched_rows;

  friend bool operator==(const CanonQuery& a, const CanonQuery& b) {
    return a.sql == b.sql && a.matched_rows == b.matched_rows;
  }
};

std::vector<CanonQuery> Canon(const DiscoveryResult& result) {
  std::vector<CanonQuery> out;
  out.reserve(result.queries.size());
  for (const DiscoveredQuery& q : result.queries) {
    out.push_back({q.sql, q.matched_rows});
  }
  std::sort(out.begin(), out.end(),
            [](const CanonQuery& a, const CanonQuery& b) {
              return a.sql < b.sql;
            });
  return out;
}

/// One discovery observed mid-flight: the pin (which keeps the epoch's
/// base + delta alive however many versions publish after it) plus what
/// discovery returned against it.
struct Sample {
  DbVersion pin;
  int reader;
  std::vector<CanonQuery> result;
};

/// The writer: appends customers (some wired into Sales so they join to
/// ThinkPad + Office and genuinely change the Figure-2 valid set), and
/// tombstones the newest live customer every third op. With
/// `racing_compaction` a tombstone may lose the race against a concurrent
/// renumbering Compact — that rejection is benign and skipped; without
/// compaction every mutation must be admitted.
void RunWriter(LiveDatabase& live, int customer_rel, int sales_rel, int ops,
               bool racing_compaction, std::atomic<bool>& failed) {
  std::string error;
  for (int op = 0; op < ops; ++op) {
    bool ok = true;
    if (op % 3 == 2) {
      // Victim: the highest-id live customer at pin time. Compaction can
      // renumber between the pin and the Tombstone; the row id then either
      // names a different live row (still a valid kill) or misses.
      const DbVersion pin = live.Pin();
      const DbView view = pin.view();
      int64_t victim = -1;
      for (int64_t row = view.TotalRows(customer_rel) - 1; row >= 0; --row) {
        if (view.IsLive(customer_rel, static_cast<uint32_t>(row))) {
          victim = row;
          break;
        }
      }
      ASSERT_GE(victim, 0);  // the base rows alone guarantee a live row
      ok = live.Tombstone(customer_rel, static_cast<uint32_t>(victim), &error);
      if (!ok && racing_compaction) continue;  // lost the renumbering race
    } else {
      const int64_t cust_id = 1000 + op;
      ok = live.Append(customer_rel,
                       {cust_id, std::string("Mike Clone ") +
                                     std::to_string(op)},
                       &error);
      if (ok) {
        // Half the clones buy ThinkPad X1 + Office 2013 (device 1, app 1).
        if (op % 2 == 0) {
          ok = live.Append(sales_rel,
                           {int64_t{5000 + op}, cust_id, int64_t{1},
                            int64_t{1}},
                           &error);
        }
      }
    }
    if (!ok) {
      ADD_FAILURE() << "writer op " << op << ": " << error;
      failed.store(true);
      return;
    }
    std::this_thread::yield();
  }
}

/// A reader: repeatedly pin the current epoch, discover, and record
/// (pin, result) for post-hoc verification.
void RunReader(LiveDatabase& live, const ExampleTable& et, int reader,
               int iterations, std::mutex& mu, std::vector<Sample>& samples) {
  for (int i = 0; i < iterations; ++i) {
    DbVersion pin = live.Pin();
    DiscoveryResult result = DiscoverQueries(pin.view(), et, {}, pin.epoch);
    ASSERT_TRUE(result.ok()) << result.error;
    std::lock_guard<std::mutex> lock(mu);
    samples.push_back({std::move(pin), reader, Canon(result)});
  }
}

/// Holds the writer back until `ready()` (or 10 s pass). The writer's
/// mutations take well under a millisecond, so without this it can publish
/// every epoch before a reader or the compactor first runs, and the run
/// observes no concurrency at all.
template <typename Ready>
void AwaitBeforeWriting(Ready ready) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!ready() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

bool HasSample(std::mutex& mu, const std::vector<Sample>& samples) {
  std::lock_guard<std::mutex> lock(mu);
  return !samples.empty();
}

/// Post-hoc: every sample must match a cold load of its pinned epoch, and
/// samples of the same epoch must agree with each other across readers.
void VerifySamples(const ExampleTable& et, std::vector<Sample>& samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) {
              return a.pin.epoch < b.pin.epoch;
            });
  size_t cold_loads = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    if (i > 0 && samples[i - 1].pin.epoch == s.pin.epoch) {
      // Same epoch already verified against its cold load: cross-check
      // the two observations directly (cheap).
      EXPECT_EQ(samples[i - 1].result, s.result)
          << "epoch " << s.pin.epoch << ": readers " << samples[i - 1].reader
          << " and " << s.reader << " disagree";
      continue;
    }
    ++cold_loads;
    Database cold = MaterializeDatabase(s.pin.view());
    std::vector<CanonQuery> fresh = Canon(DiscoverQueries(cold, et));
    EXPECT_EQ(s.result, fresh)
        << "epoch " << s.pin.epoch << " (reader " << s.reader
        << ") diverges from its from-scratch load";
  }
  // The run must have actually observed concurrent epochs.
  EXPECT_GT(cold_loads, 1u);
}

class IngestConcurrencyTest : public ::testing::Test {};

TEST_F(IngestConcurrencyTest, DiscoveryPinsBitIdenticalEpochsDuringAppends) {
  LiveDatabase live(MakeRetailerDatabase());
  const ExampleTable et = MakeFigure2ExampleTable();
  const DbVersion v0 = live.Pin();
  const int customer = v0.base->RelationIdByName("Customer");
  const int sales = v0.base->RelationIdByName("Sales");
  ASSERT_GE(customer, 0);
  ASSERT_GE(sales, 0);

  std::atomic<bool> failed{false};
  std::mutex mu;
  std::vector<Sample> samples;
  std::thread writer([&] {
    AwaitBeforeWriting([&] { return HasSample(mu, samples); });
    RunWriter(live, customer, sales, 45, false, failed);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] { RunReader(live, et, r, 8, mu, samples); });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  ASSERT_FALSE(failed.load());

  // One final sample of the settled end state from each reader.
  for (int r = 0; r < kReaders; ++r) RunReader(live, et, r, 1, mu, samples);
  VerifySamples(et, samples);
}

TEST_F(IngestConcurrencyTest, CompactionRacesDiscoveryWithoutTearingPins) {
  LiveDatabase live(MakeRetailerDatabase());
  const ExampleTable et = MakeFigure2ExampleTable();
  const DbVersion v0 = live.Pin();
  const int customer = v0.base->RelationIdByName("Customer");
  const int sales = v0.base->RelationIdByName("Sales");

  std::atomic<bool> failed{false};
  std::atomic<bool> done{false};
  std::mutex mu;
  std::vector<Sample> samples;
  std::atomic<int> compactions{0};
  std::thread writer([&] {
    AwaitBeforeWriting(
        [&] { return HasSample(mu, samples) && compactions.load() > 0; });
    RunWriter(live, customer, sales, 45, true, failed);
    done.store(true);
  });
  // The compactor repeatedly folds whatever overlay exists mid-stream.
  // Old pins must stay readable: their shared_ptrs outlive the swap.
  std::thread compactor([&] {
    std::string error;
    while (!done.load()) {
      if (!live.Compact("", &error)) {
        ADD_FAILURE() << "compaction: " << error;
        failed.store(true);
        return;
      }
      ++compactions;
      std::this_thread::yield();
    }
    EXPECT_GT(compactions.load(), 0);
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] { RunReader(live, et, r, 8, mu, samples); });
  }
  writer.join();
  compactor.join();
  for (std::thread& t : readers) t.join();
  ASSERT_FALSE(failed.load());

  for (int r = 0; r < kReaders; ++r) RunReader(live, et, r, 1, mu, samples);
  VerifySamples(et, samples);

  // After the dust settles: one more compaction, then the end state still
  // equals its cold load.
  std::string error;
  ASSERT_TRUE(live.Compact("", &error)) << error;
  DbVersion end = live.Pin();
  EXPECT_TRUE(end.view().plain());
  std::vector<CanonQuery> a =
      Canon(DiscoverQueries(end.view(), et, {}, end.epoch));
  Database cold = MaterializeDatabase(end.view());
  std::vector<CanonQuery> b = Canon(DiscoverQueries(cold, et));
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace qbe
