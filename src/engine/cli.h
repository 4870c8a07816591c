// Shared CLI harness for the bench and example binaries.
//
// Every reproduction binary selects its evaluators at runtime through the
// JoinEngine facade instead of hard-coding per-engine entry points:
//
//   --engine=<name>        one engine (see EngineKindName)
//   --engines=<a,b,..|all> several, or the whole matrix
//   --format=table|csv|jsonl
//   --reps=<n>             repetitions per run (fastest wall time kept)
//   --seed=<n>             workload seed override (0 = binary default)
//   --size=<n>             generic scale knob (0 = binary default)
//   --shards=<n|auto>      dyadic-prefix sharding per run (default: off)
//   --threads=<n|auto>     worker cap per sharded run (auto = the shared
//                          executor's full width; 0/negative rejected)
//   --memory-budget=<n[K|M|G]> per-shard resident budget (implies
//                          sharding; binary suffixes)
//   --parallel             run the selected *engines* concurrently too
//   --batch=<n>            batch size for the batching binaries
//   --queries=<file>       batch query specs, one per line (see
//                          workload/generators.h SharedRelationBatch)
//   --list-engines, --help
//
// ParseHarnessArgs strips the recognized flags out of argv so binaries
// keep their own positional arguments (and google-benchmark its flags).
// RunEngines drives RunJoin for each selected engine — concurrently
// under --parallel (one pool task per engine, results in deterministic
// engine order); RunReporter emits one row per (scenario, engine) — a
// human table, CSV, or JSON lines — with the time *and* space counters
// of RunStats, one sub-row per shard for sharded runs, and structured
// summary rows (fitted exponents, expectations) in every format; it
// cross-checks that all engines agree on the output size. EXPERIMENTS.md
// documents the flags and expected output shape per binary.
#ifndef TETRIS_ENGINE_CLI_H_
#define TETRIS_ENGINE_CLI_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/batch_runner.h"
#include "engine/join_engine.h"

namespace tetris::cli {

/// How RunReporter renders rows.
enum class OutputFormat {
  kTable,  ///< human-readable fixed-width table + commentary
  kCsv,    ///< one header row, then one data row per engine run
  kJsonl,  ///< one JSON object per engine run
};

/// The shared flags, after parsing.
struct HarnessOptions {
  /// Selected engines. ParseHarnessArgs only overwrites this when an
  /// --engine/--engines flag is present, so binaries preset their
  /// traditional default line-up before parsing.
  std::vector<EngineKind> engines;
  OutputFormat format = OutputFormat::kTable;
  int reps = 1;
  uint64_t seed = 0;  ///< 0 = binary default
  uint64_t size = 0;  ///< 0 = binary default
  /// Per-run sharding knobs, forwarded into EngineOptions when the
  /// corresponding flag was present (the *_set bools) — so binaries'
  /// own EngineOptions presets survive unless the user overrides them,
  /// including overriding back to the defaults (--threads=1,
  /// --shards=0). `shards` follows EngineOptions::shards
  /// (kAutoShards = --shards=auto).
  int shards = 0;
  bool shards_set = false;
  int threads = 1;
  bool threads_set = false;
  size_t memory_budget = 0;
  bool memory_budget_set = false;
  /// Run the selected engines concurrently (one pool task per engine).
  bool parallel = false;
  /// Batch size for the batching binaries (0 = binary default).
  uint64_t batch = 0;
  /// Batch query-spec file (--queries): one spec per line, '#' comments
  /// and blank lines ignored. Empty = not set.
  std::string queries_file;
  bool list_engines = false;
  bool help = false;
};

/// Parses a full-string unsigned integer; false on junk, sign characters
/// (strtoull would silently wrap "-3" modulo 2^64) or overflow past
/// UINT64_MAX.
bool ParseU64(const std::string& text, uint64_t* out);

/// Byte count with an optional binary suffix: "65536", "512K", "64M",
/// "2G" (case-insensitive, optional trailing "B": "64MB"). False on
/// junk, negatives, a digit string past UINT64_MAX, or a value that
/// overflows after scaling ("18446744073709551615G") — out-of-range
/// byte counts are rejected, never silently wrapped.
bool ParseByteCount(const std::string& text, uint64_t* out);

/// "--name=value" accessor: true iff `arg` starts with "--name=",
/// leaving the value in *value.
bool FlagValue(const char* arg, const char* name, std::string* value);

/// `s` escaped for the inside of a JSON string (RFC 8259 §7): `"` and
/// `\`, \b \f \n \r \t by name and every other byte below 0x20 as
/// \u00XX, so a JSONL row stays one line whatever its strings hold.
std::string JsonEscape(const std::string& s);

/// Exact-name lookup against EngineKindName. On failure returns false and
/// sets `error` to a message listing the valid names.
bool ParseEngineKind(const std::string& name, EngineKind* out,
                     std::string* error);

/// "all" = every engine; otherwise a comma-separated list of names
/// (duplicates removed, order preserved).
bool ParseEngineList(const std::string& spec, std::vector<EngineKind>* out,
                     std::string* error);

bool ParseOutputFormat(const std::string& name, OutputFormat* out,
                       std::string* error);

const char* OutputFormatName(OutputFormat format);

/// Strips every recognized `--flag=value` (and --list-engines/--help/-h)
/// from argv, updating *argc. Unrecognized arguments are kept in place;
/// unknown `--flags` are an error unless `allow_unknown_flags` (set by
/// the google-benchmark binary, whose own flags must pass through).
/// Returns false with `error` set on a bad flag or value.
bool ParseHarnessArgs(int* argc, char** argv, HarnessOptions* opts,
                      std::string* error, bool allow_unknown_flags = false);

/// Prints the shared-flag usage block to stdout.
void PrintHarnessUsage();

/// Prints one engine name per line (the --list-engines output).
void PrintEngineList();

/// The whole binary prologue in one call: parses the shared flags and
/// handles the common early exits — parse error (message on stderr,
/// exit 2), --help (`banner` + usage, exit 0), --list-engines (names,
/// exit 0). Returns the exit code when the binary should stop, nullopt
/// to continue with the parsed options.
std::optional<int> HandleStartup(int* argc, char** argv,
                                 HarnessOptions* opts, const char* banner,
                                 bool allow_unknown_flags = false);

/// One facade run of one engine.
struct EngineRun {
  EngineKind kind = EngineKind::kTetrisPreloaded;
  EngineResult result;
};

/// Runs `query` through RunJoin on every selected engine, `opts.reps`
/// times each (the fastest wall time is kept; counters come from the
/// last repetition — they are deterministic). Engines that reject
/// `eopts.order` by design (the Balance-lifted variants choose their own
/// SAO) run without the hint instead of failing; genuinely unsupported
/// combinations (Yannakakis on a cyclic query) come back with
/// `result.ok == false` so the reporter can say so.
std::vector<EngineRun> RunEngines(const JoinQuery& query,
                                  const HarnessOptions& opts,
                                  const EngineOptions& eopts = {});

/// Reads a --queries file: one batch query spec per line (see
/// workload/generators.h SharedRelationBatch for the format), '#'
/// comments and blank lines ignored. False with `error` set when the
/// file cannot be read or holds no specs.
bool ReadQuerySpecs(const std::string& path, std::vector<std::string>* specs,
                    std::string* error);

/// One batch run of one engine.
struct BatchRun {
  EngineKind kind = EngineKind::kTetrisPreloaded;
  BatchResult result;
};

/// Runs the whole batch through RunBatch (engine/batch_runner.h) on
/// every selected engine, `opts.reps` times each (fastest batch wall
/// time kept). Explicit harness flags (--threads / --shards /
/// --memory-budget) override `bopts` the same way RunEngines overrides
/// EngineOptions. Engines run sequentially — each batch already fans
/// out across the shared executor.
std::vector<BatchRun> RunBatch(const std::vector<const Relation*>& relations,
                               const std::vector<JoinQuery>& queries,
                               const HarnessOptions& opts,
                               const BatchOptions& bopts = {});

/// Named numeric columns a binary attaches to a row (workload parameters
/// and derived quantities, e.g. {"n", 4096} or {"res/agm", 1.02}).
using Params = std::vector<std::pair<std::string, double>>;

/// Renders (scenario, engine) rows in the selected format and tracks
/// cross-engine agreement on |output| per scenario.
class RunReporter {
 public:
  RunReporter(OutputFormat format, std::string bench);

  /// Starts a new table section (table mode prints a banner; csv/jsonl
  /// carry the title in the `section` column).
  void Section(const std::string& title);

  /// Emits one row (`row_type=run`) for `engine`'s `result`, plus one
  /// `row_type=shard` sub-row per shard when the run was sharded. The
  /// result is read in place, never copied. Successful runs of the same
  /// scenario must agree on the output size; a mismatch is reported and
  /// recorded (shard sub-rows are exempt — they carry partial outputs).
  void Row(const std::string& scenario, const Params& params,
           EngineKind engine, const EngineResult& result);

  /// Row for a result whose work was done earlier (a served cache hit):
  /// the run row reports `work` instead of result.stats, and no shard
  /// sub-rows follow. Status and tuples are read from `result` in place.
  void Row(const std::string& scenario, const Params& params,
           EngineKind engine, const EngineResult& result,
           const RunStats& work);

  /// Emits one `row_type=batch` row for a whole batch run: the
  /// BatchStats amortization counters land in `params`
  /// (queries/plans/index_builds/tasks/threads, amortized index_KiB and
  /// plan_KiB, qps throughput and the attributed sum_query_ms), `tuples`
  /// is the total across queries and `wall_ms` the batch wall time.
  /// Successful batches of the same scenario must agree on the total
  /// output size, like Row.
  void BatchRow(const std::string& scenario, const Params& params,
                const BatchRun& run);

  /// printf-style commentary (context banners, prose). Printed in table
  /// mode only, so csv/jsonl stay machine-parseable.
  void Note(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

  /// A structured summary metric (fitted exponents, shape claims): table
  /// mode prints it like a note; csv/jsonl emit a `row_type=summary` row
  /// carrying the metric name, value and expectation text, so automated
  /// tracking can assert the claims instead of re-parsing prose.
  void Summary(const std::string& metric, double value,
               const std::string& expectation = "");

  /// printf-style diagnostic for violated expectations ("!! EXPECTED
  /// EMPTY ..."). Always printed, to stderr, in every format — a
  /// machine-format run that exits nonzero must still say why.
  void Error(const char* fmt, ...) __attribute__((format(printf, 2, 3)));

  /// False iff some scenario saw two engines disagree on |output|.
  bool AllAgreed() const { return agreed_; }

 private:
  void PrintTableHeader();
  // The single row emitter behind run, shard, batch and csv summary rows.
  // `box` is the shard subcube (shard rows only; empty otherwise);
  // `note` fills the csv `note` column, where a summary row carries its
  // expectation text; the other formats do not print it.
  void EmitRow(const char* row_type, const std::string& scenario,
               const Params& params, const char* engine_name, bool ok,
               const std::string& error, const RunStats& s, size_t tuples,
               const std::string& box, const std::string& note);

  OutputFormat format_;
  std::string bench_;
  std::string section_;
  bool csv_header_printed_ = false;
  bool table_header_printed_ = false;
  std::map<std::string, size_t> expected_tuples_;
  bool agreed_ = true;
};

}  // namespace tetris::cli

#endif  // TETRIS_ENGINE_CLI_H_
