#ifndef QBE_SERVICE_SERVE_ARGS_H_
#define QBE_SERVICE_SERVE_ARGS_H_

#include <optional>
#include <string>

#include "core/discovery.h"

namespace qbe {

/// Parsed qbe_serve command line. Extracted from the tool so the parser is
/// unit-testable (tests/service_test.cc) and strict: an unknown flag, a
/// flag missing its value, or an out-of-range value sets `error` (naming
/// the offending flag) instead of being silently ignored.
struct ServeArgs {
  std::string dataset = "retailer";
  std::string snapshot_path;
  std::string requests_file;
  double scale = 0.1;
  int repeat = 4;
  int clients = 8;
  int append_mix = 0;  // percent of client ops that are row appends
  int workers = 4;
  size_t queue_depth = 32;
  long long timeout_ms = 0;  // 0 = none; -1 = expired (timeout test hook)
  std::string wal_path;
  size_t compact_after = 0;
  std::string compact_snapshot;
  std::string algorithm = "filter";

  // --- sharded mode (DESIGN.md §15) ----------------------------------------
  /// Split the built/generated dataset into this many FK-co-located shards
  /// at startup (1 = unsharded).
  int shards = 1;
  /// Partition mode for --shards: "hash" | "range".
  std::string shard_mode = "hash";
  /// Placement-hash seed for --shards (and append routing).
  long long shard_seed = 0;
  /// Serve pre-split per-shard snapshots named by a `qbe_shard split`
  /// manifest instead of splitting at startup. Excludes --shards.
  std::string shardset_path;

  // --- networked serving (DESIGN.md §16) -----------------------------------
  /// Serve the wire protocol on this loopback TCP port instead of replaying
  /// a workload in-process. < 0 = batch-replay mode; 0 = ephemeral port.
  int listen_port = -1;
  /// Write the bound listen port (one decimal line) here once serving —
  /// how CI scripts find an ephemeral --listen 0 port.
  std::string port_file;
  /// Connection cap for --listen; accepts beyond it get a typed
  /// kServerBusy error frame.
  size_t max_conns = 256;
  /// Idle keep-alive connections are closed (typed kIdleTimeout frame)
  /// after this many milliseconds; 0 disables the sweep.
  long long idle_timeout_ms = 60'000;

  // --- observability (DESIGN.md §13) ---------------------------------------
  /// Loopback HTTP port serving GET /metrics (Prometheus text) and
  /// GET /traces (Chrome trace JSON). < 0 = no endpoint; 0 = ephemeral.
  int metrics_port = -1;
  /// Fraction of requests traced (deterministic sampling), in [0, 1].
  double trace_sample = 0.0;
  /// Slow-query log threshold in milliseconds; < 0 = off, 0 = log all.
  double slow_query_ms = -1.0;
  /// Write the run's sampled traces as Chrome trace JSON here at exit.
  std::string trace_out;

  /// --help / -h was given: print usage, exit 0.
  bool show_usage = false;
  /// Empty = parsed OK; otherwise why parsing failed, naming the flag.
  std::string error;

  bool ok() const { return error.empty(); }
};

/// Strictly parses argv (argv[0] is skipped). Never exits or prints.
ServeArgs ParseServeArgs(int argc, const char* const* argv);

/// The usage text qbe_serve prints on --help or a parse error.
std::string ServeUsage();

/// "verifyall" | "simpleprune" | "filter" | "filterexact" | "weave" → the
/// Algorithm, or nullopt.
std::optional<Algorithm> ParseAlgorithmName(const std::string& name);

}  // namespace qbe

#endif  // QBE_SERVICE_SERVE_ARGS_H_
