#include "service/serve_args.h"

#include <cstdint>
#include <cstdlib>

namespace qbe {

namespace {

bool ParseLong(const char* s, long long* out) {
  char* end = nullptr;
  *out = std::strtoll(s, &end, 10);
  return end != s && *end == '\0';
}

bool ParseDouble(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return end != s && *end == '\0';
}

}  // namespace

std::string ServeUsage() {
  return
      "usage: qbe_serve [--dataset retailer|imdb] [--scale S]\n"
      "                 [--snapshot FILE.qbes] [--wal FILE.qbel]\n"
      "                 [--requests FILE] [--repeat R]\n"
      "                 [--clients N] [--workers N] [--queue-depth N]\n"
      "                 [--append-mix P] [--compact-after N]\n"
      "                 [--compact-snapshot FILE.qbes]\n"
      "                 [--timeout-ms T]\n"
      "                 [--algorithm verifyall|simpleprune|filter|weave]\n"
      "                 [--listen PORT] [--port-file FILE]\n"
      "                 [--max-conns N] [--idle-timeout-ms T]\n"
      "                 [--metrics-port P] [--trace-sample F]\n"
      "                 [--slow-query-ms T] [--trace-out FILE.json]\n"
      "                 [--shards N] [--shard-mode hash|range]\n"
      "                 [--shard-seed S] [--shardset FILE.shardset]\n";
}

std::optional<Algorithm> ParseAlgorithmName(const std::string& name) {
  if (name == "verifyall") return Algorithm::kVerifyAll;
  if (name == "simpleprune") return Algorithm::kSimplePrune;
  if (name == "filter") return Algorithm::kFilter;
  if (name == "weave") return Algorithm::kWeave;
  return std::nullopt;
}

ServeArgs ParseServeArgs(int argc, const char* const* argv) {
  ServeArgs args;
  auto fail = [&](const std::string& why) {
    if (args.error.empty()) args.error = why;
  };

  for (int i = 1; i < argc && args.ok(); ++i) {
    const std::string arg = argv[i];
    // Consumes the flag's value; fails (returning null) when it is absent.
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        fail("missing value for " + arg);
        return nullptr;
      }
      return argv[++i];
    };
    auto long_value = [&](long long lo, long long hi) -> long long {
      const char* v = value();
      long long n = 0;
      if (v == nullptr) return 0;
      if (!ParseLong(v, &n) || n < lo || n > hi) {
        fail("bad value for " + arg + ": " + v);
        return 0;
      }
      return n;
    };
    auto double_value = [&](double lo, double hi) -> double {
      const char* v = value();
      double d = 0.0;
      if (v == nullptr) return 0.0;
      if (!ParseDouble(v, &d) || d < lo || d > hi) {
        fail("bad value for " + arg + ": " + v);
        return 0.0;
      }
      return d;
    };

    if (arg == "--help" || arg == "-h") {
      args.show_usage = true;
    } else if (arg == "--dataset") {
      if (const char* v = value()) args.dataset = v;
    } else if (arg == "--scale") {
      args.scale = double_value(1e-6, 1e6);
    } else if (arg == "--snapshot") {
      if (const char* v = value()) args.snapshot_path = v;
    } else if (arg == "--requests") {
      if (const char* v = value()) args.requests_file = v;
    } else if (arg == "--repeat") {
      args.repeat = static_cast<int>(long_value(1, 1'000'000));
    } else if (arg == "--clients") {
      args.clients = static_cast<int>(long_value(1, 4096));
    } else if (arg == "--workers") {
      args.workers = static_cast<int>(long_value(1, 4096));
    } else if (arg == "--queue-depth") {
      args.queue_depth = static_cast<size_t>(long_value(1, 1'000'000));
    } else if (arg == "--timeout-ms") {
      // -1 = already-expired deadline (drives the timeout path in tests),
      // 0 = no timeout.
      args.timeout_ms = long_value(-1, 86'400'000);
    } else if (arg == "--wal") {
      if (const char* v = value()) args.wal_path = v;
    } else if (arg == "--append-mix") {
      args.append_mix = static_cast<int>(long_value(0, 100));
    } else if (arg == "--compact-after") {
      args.compact_after = static_cast<size_t>(long_value(0, 1'000'000'000));
    } else if (arg == "--compact-snapshot") {
      if (const char* v = value()) args.compact_snapshot = v;
    } else if (arg == "--algorithm") {
      if (const char* v = value()) args.algorithm = v;
    } else if (arg == "--listen") {
      args.listen_port = static_cast<int>(long_value(0, 65535));
    } else if (arg == "--port-file") {
      if (const char* v = value()) args.port_file = v;
    } else if (arg == "--max-conns") {
      args.max_conns = static_cast<size_t>(long_value(1, 1'000'000));
    } else if (arg == "--idle-timeout-ms") {
      args.idle_timeout_ms = long_value(0, 86'400'000);
    } else if (arg == "--metrics-port") {
      args.metrics_port = static_cast<int>(long_value(0, 65535));
    } else if (arg == "--trace-sample") {
      args.trace_sample = double_value(0.0, 1.0);
    } else if (arg == "--slow-query-ms") {
      args.slow_query_ms = double_value(0.0, 1e9);
    } else if (arg == "--trace-out") {
      if (const char* v = value()) args.trace_out = v;
    } else if (arg == "--shards") {
      args.shards = static_cast<int>(long_value(1, 1024));
    } else if (arg == "--shard-mode") {
      if (const char* v = value()) args.shard_mode = v;
    } else if (arg == "--shard-seed") {
      args.shard_seed = long_value(0, INT64_MAX);
    } else if (arg == "--shardset") {
      if (const char* v = value()) args.shardset_path = v;
    } else {
      fail("unknown flag " + arg);
    }
  }

  if (args.ok() && args.dataset != "retailer" && args.dataset != "imdb") {
    fail("unknown dataset " + args.dataset);
  }
  if (args.ok() && !ParseAlgorithmName(args.algorithm).has_value()) {
    fail("unknown algorithm " + args.algorithm);
  }
  if (args.ok() && args.shard_mode != "hash" && args.shard_mode != "range") {
    fail("unknown shard mode " + args.shard_mode);
  }
  if (args.ok() && args.shards > 1 && !args.shardset_path.empty()) {
    fail("--shards and --shardset are mutually exclusive");
  }
  // WEAVE has no scatter-gather form (see DiscoverQueries), so every
  // request over several shards would fail.
  if (args.ok() && args.algorithm == "weave" &&
      (args.shards > 1 || !args.shardset_path.empty())) {
    fail(std::string("--algorithm weave cannot be combined with ") +
         (args.shards > 1 ? "--shards N>1" : "--shardset"));
  }
  return args;
}

}  // namespace qbe
