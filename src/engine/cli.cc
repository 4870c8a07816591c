#include "engine/cli.h"

#include "engine/parallel_executor.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace tetris::cli {

namespace {

// Joins every engine name for error messages and --list-engines.
std::string AllEngineNames(const char* sep) {
  std::string s;
  for (EngineKind kind : AllEngineKinds()) {
    if (!s.empty()) s += sep;
    s += EngineKindName(kind);
  }
  return s;
}

}  // namespace

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ParseByteCount(const std::string& text, uint64_t* out) {
  size_t digits = 0;
  while (digits < text.size() &&
         std::isdigit(static_cast<unsigned char>(text[digits]))) {
    ++digits;
  }
  if (digits == 0) return false;
  uint64_t value;
  if (!ParseU64(text.substr(0, digits), &value)) return false;
  std::string suffix = text.substr(digits);
  for (char& c : suffix) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  int shift = 0;
  if (suffix == "" || suffix == "b") {
    shift = 0;
  } else if (suffix == "k" || suffix == "kb") {
    shift = 10;
  } else if (suffix == "m" || suffix == "mb") {
    shift = 20;
  } else if (suffix == "g" || suffix == "gb") {
    shift = 30;
  } else {
    return false;
  }
  if (shift > 0 && value > (UINT64_MAX >> shift)) return false;
  *out = value << shift;
  return true;
}

bool FlagValue(const char* arg, const char* name, std::string* value) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

// CSV fields are not quoted; commas inside them become semicolons.
std::string CsvField(const std::string& s) {
  std::string out = s;
  std::replace(out.begin(), out.end(), ',', ';');
  return out;
}

// One "key=value" (or JSON "\"key\":value") entry per param, joined by
// `sep` — the single formatter behind the table, CSV and JSONL rows.
std::string FormatParams(const Params& params, const char* sep,
                         bool json) {
  std::string s;
  char buf[96];
  for (const auto& [key, value] : params) {
    if (!s.empty()) s += sep;
    if (json) {
      std::snprintf(buf, sizeof(buf), "\"%s\":%.6g",
                    JsonEscape(key).c_str(), value);
    } else {
      std::snprintf(buf, sizeof(buf), "%s=%.6g", key.c_str(), value);
    }
    s += buf;
  }
  return s;
}

}  // namespace

bool ParseEngineKind(const std::string& name, EngineKind* out,
                     std::string* error) {
  for (EngineKind kind : AllEngineKinds()) {
    if (name == EngineKindName(kind)) {
      *out = kind;
      return true;
    }
  }
  if (error) {
    *error = "unknown engine '" + name + "' (valid: " +
             AllEngineNames(", ") + ")";
  }
  return false;
}

bool ParseEngineList(const std::string& spec, std::vector<EngineKind>* out,
                     std::string* error) {
  out->clear();
  if (spec == "all") {
    *out = AllEngineKinds();
    return true;
  }
  size_t start = 0;
  while (start <= spec.size()) {
    size_t comma = spec.find(',', start);
    if (comma == std::string::npos) comma = spec.size();
    std::string name = spec.substr(start, comma - start);
    if (name.empty()) {
      if (error) *error = "empty engine name in list '" + spec + "'";
      return false;
    }
    EngineKind kind;
    if (!ParseEngineKind(name, &kind, error)) return false;
    if (std::find(out->begin(), out->end(), kind) == out->end()) {
      out->push_back(kind);
    }
    start = comma + 1;
  }
  if (out->empty()) {
    if (error) *error = "empty engine list";
    return false;
  }
  return true;
}

bool ParseOutputFormat(const std::string& name, OutputFormat* out,
                       std::string* error) {
  if (name == "table") {
    *out = OutputFormat::kTable;
  } else if (name == "csv") {
    *out = OutputFormat::kCsv;
  } else if (name == "jsonl") {
    *out = OutputFormat::kJsonl;
  } else {
    if (error) {
      *error = "unknown format '" + name + "' (valid: table, csv, jsonl)";
    }
    return false;
  }
  return true;
}

const char* OutputFormatName(OutputFormat format) {
  switch (format) {
    case OutputFormat::kTable:
      return "table";
    case OutputFormat::kCsv:
      return "csv";
    case OutputFormat::kJsonl:
      return "jsonl";
  }
  return "unknown";
}

bool ParseHarnessArgs(int* argc, char** argv, HarnessOptions* opts,
                      std::string* error, bool allow_unknown_flags) {
  int w = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    std::string value;
    bool consumed = true;
    if (FlagValue(arg, "--engine", &value)) {
      EngineKind kind;
      if (!ParseEngineKind(value, &kind, error)) return false;
      opts->engines = {kind};
    } else if (FlagValue(arg, "--engines", &value)) {
      if (!ParseEngineList(value, &opts->engines, error)) return false;
    } else if (FlagValue(arg, "--format", &value)) {
      if (!ParseOutputFormat(value, &opts->format, error)) return false;
    } else if (FlagValue(arg, "--reps", &value)) {
      uint64_t reps;
      if (!ParseU64(value, &reps) || reps == 0) {
        if (error) *error = "--reps wants a positive integer, got '" +
                            value + "'";
        return false;
      }
      opts->reps = static_cast<int>(std::min<uint64_t>(reps, 1000));
    } else if (FlagValue(arg, "--seed", &value)) {
      if (!ParseU64(value, &opts->seed)) {
        if (error) *error = "--seed wants an integer, got '" + value + "'";
        return false;
      }
    } else if (FlagValue(arg, "--size", &value)) {
      if (!ParseU64(value, &opts->size)) {
        if (error) *error = "--size wants an integer, got '" + value + "'";
        return false;
      }
    } else if (FlagValue(arg, "--shards", &value)) {
      uint64_t shards;
      if (value == "auto") {
        opts->shards = kAutoShards;
      } else if (ParseU64(value, &shards) && shards <= 1u << 20) {
        opts->shards = static_cast<int>(shards);
      } else {
        if (error) {
          *error = "--shards wants 'auto' or a shard count (up to 2^20), "
                   "got '" + value + "'";
        }
        return false;
      }
      opts->shards_set = true;
    } else if (FlagValue(arg, "--threads", &value)) {
      uint64_t threads = 0;
      if (value == "auto") {
        opts->threads = 0;  // the executor's full width
      } else if (ParseU64(value, &threads) && threads >= 1 &&
                 threads <= 256) {
        opts->threads = static_cast<int>(threads);
      } else {
        if (error) {
          *error = "--threads wants 'auto' (every worker of the shared "
                   "executor) or a thread cap in [1, 256]; zero or "
                   "negative counts cannot run anything (got '" +
                   value + "')";
        }
        return false;
      }
      opts->threads_set = true;
    } else if (FlagValue(arg, "--memory-budget", &value)) {
      uint64_t budget;
      if (!ParseByteCount(value, &budget)) {
        if (error) {
          *error = "--memory-budget wants a byte count, optionally with "
                   "a binary suffix (65536, 512K, 64M, 2G), got '" +
                   value + "'";
        }
        return false;
      }
      opts->memory_budget = static_cast<size_t>(budget);
      opts->memory_budget_set = true;
    } else if (std::strcmp(arg, "--parallel") == 0) {
      opts->parallel = true;
    } else if (FlagValue(arg, "--batch", &value)) {
      uint64_t batch;
      if (!ParseU64(value, &batch) || batch == 0 || batch > 1u << 20) {
        if (error) {
          *error = "--batch wants a batch size in [1, 2^20], got '" +
                   value + "'";
        }
        return false;
      }
      opts->batch = batch;
    } else if (FlagValue(arg, "--queries", &value)) {
      if (value.empty()) {
        if (error) *error = "--queries wants a file path";
        return false;
      }
      opts->queries_file = value;
    } else if (std::strcmp(arg, "--list-engines") == 0) {
      opts->list_engines = true;
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      opts->help = true;
    } else {
      if (!allow_unknown_flags && std::strncmp(arg, "--", 2) == 0) {
        if (error) {
          *error = std::string("unknown flag '") + arg + "' (see --help)";
        }
        return false;
      }
      consumed = false;
    }
    if (!consumed) argv[w++] = argv[i];
  }
  *argc = w;
  argv[w] = nullptr;
  return true;
}

void PrintHarnessUsage() {
  std::printf(
      "shared harness flags:\n"
      "  --engine=<name>         run one engine (see --list-engines)\n"
      "  --engines=<a,b,..|all>  run several engines, or all eleven\n"
      "  --format=table|csv|jsonl  output format (default: table)\n"
      "  --reps=<n>              repetitions; fastest wall time kept\n"
      "  --seed=<n>              workload seed override\n"
      "  --size=<n>              workload scale override\n"
      "  --shards=<n|auto>       dyadic-prefix sharding per run\n"
      "  --threads=<n|auto>      worker cap per sharded run (auto = the "
      "shared executor's full width)\n"
      "  --memory-budget=<n[K|M|G]> per-shard resident budget (implies "
      "sharding)\n"
      "  --parallel              run the selected engines concurrently\n"
      "  --batch=<n>             batch size (batching binaries)\n"
      "  --queries=<file>        batch query specs, one per line\n"
      "  --list-engines          print the engine names and exit\n"
      "  --help                  this message\n");
}

void PrintEngineList() {
  for (EngineKind kind : AllEngineKinds()) {
    std::printf("%s\n", EngineKindName(kind));
  }
}

std::optional<int> HandleStartup(int* argc, char** argv,
                                 HarnessOptions* opts, const char* banner,
                                 bool allow_unknown_flags) {
  std::string error;
  if (!ParseHarnessArgs(argc, argv, opts, &error, allow_unknown_flags)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (opts->help) {
    std::printf("%s\n\n", banner);
    PrintHarnessUsage();
    return 0;
  }
  if (opts->list_engines) {
    PrintEngineList();
    return 0;
  }
  return std::nullopt;
}

std::vector<EngineRun> RunEngines(const JoinQuery& query,
                                  const HarnessOptions& opts,
                                  const EngineOptions& eopts) {
  std::vector<EngineRun> runs(opts.engines.size());
  auto run_one = [&query, &opts, &eopts, &runs](int i) {
    const EngineKind kind = opts.engines[static_cast<size_t>(i)];
    EngineOptions engine_opts = eopts;
    // Explicit harness flags override the binary's EngineOptions preset
    // (in both directions — --threads=1 forces a sequential run even
    // against a preset).
    if (opts.shards_set) engine_opts.shards = opts.shards;
    if (opts.threads_set) engine_opts.threads = opts.threads;
    if (opts.memory_budget_set) {
      engine_opts.memory_budget_bytes = opts.memory_budget;
    }
    if (!engine_opts.order.empty() &&
        (kind == EngineKind::kTetrisPreloadedLB ||
         kind == EngineKind::kTetrisReloadedLB)) {
      // The lift chooses its own SAO; dropping the hint is the documented
      // harness behavior so engine sweeps include the LB variants.
      engine_opts.order.clear();
    }
    EngineRun& run = runs[static_cast<size_t>(i)];
    run.kind = kind;
    double best_ms = -1.0;
    const int reps = std::max(1, opts.reps);
    for (int rep = 0; rep < reps; ++rep) {
      run.result = RunJoin(query, kind, engine_opts);
      if (!run.result.ok) break;
      if (best_ms < 0.0 || run.result.stats.wall_ms < best_ms) {
        best_ms = run.result.stats.wall_ms;
      }
    }
    if (run.result.ok) run.result.stats.wall_ms = best_ms;
  };
  const int n = static_cast<int>(opts.engines.size());
  if (opts.parallel && n > 1) {
    // One pool task per engine; results land in per-engine slots, so
    // the returned order matches the sequential sweep exactly. The
    // sweep and any sharding inside the engines draw from the same
    // executor (eopts.executor, default the process-global pool), so
    // nesting stays within one thread budget.
    ParallelFor(eopts.executor, /*max_parallel=*/0, n, run_one);
  } else {
    for (int i = 0; i < n; ++i) run_one(i);
  }
  return runs;
}

bool ReadQuerySpecs(const std::string& path, std::vector<std::string>* specs,
                    std::string* error) {
  specs->clear();
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    if (error) *error = "--queries: cannot open '" + path + "'";
    return false;
  }
  char chunk[512];
  std::string s;
  bool done = false;
  while (!done) {
    // Accumulate until the newline: a spec line longer than one fgets
    // buffer must stay ONE spec, not silently split into fragments.
    s.clear();
    for (;;) {
      if (std::fgets(chunk, sizeof(chunk), f) == nullptr) {
        done = true;
        break;
      }
      s += chunk;
      if (!s.empty() && s.back() == '\n') break;
    }
    // Strip comments, then surrounding whitespace.
    if (size_t hash = s.find('#'); hash != std::string::npos) {
      s.erase(hash);
    }
    const char* ws = " \t\r\n";
    s.erase(0, s.find_first_not_of(ws));
    if (size_t last = s.find_last_not_of(ws); last != std::string::npos) {
      s.erase(last + 1);
    } else {
      s.clear();
    }
    if (!s.empty()) specs->push_back(std::move(s));
  }
  std::fclose(f);
  if (specs->empty()) {
    if (error) *error = "--queries: '" + path + "' holds no query specs";
    return false;
  }
  return true;
}

std::vector<BatchRun> RunBatch(const std::vector<const Relation*>& relations,
                               const std::vector<JoinQuery>& queries,
                               const HarnessOptions& opts,
                               const BatchOptions& bopts) {
  std::vector<BatchRun> runs;
  runs.reserve(opts.engines.size());
  for (EngineKind kind : opts.engines) {
    BatchOptions batch_opts = bopts;
    // Explicit harness flags override the binary's preset, like
    // RunEngines. --threads keeps its RunJoin meaning (1 = sequential);
    // the batch default of "full width" only applies when unset.
    if (opts.shards_set) batch_opts.shards = opts.shards;
    if (opts.threads_set) batch_opts.threads = opts.threads;
    if (opts.memory_budget_set) {
      batch_opts.memory_budget_bytes = opts.memory_budget;
    }
    BatchRun run;
    run.kind = kind;
    double best_ms = -1.0;
    const int reps = std::max(1, opts.reps);
    for (int rep = 0; rep < reps; ++rep) {
      run.result = tetris::RunBatch(relations, queries, kind, batch_opts);
      if (!run.result.ok) break;
      if (best_ms < 0.0 || run.result.stats.wall_ms < best_ms) {
        best_ms = run.result.stats.wall_ms;
      }
    }
    if (run.result.ok) run.result.stats.wall_ms = best_ms;
    runs.push_back(std::move(run));
  }
  return runs;
}

RunReporter::RunReporter(OutputFormat format, std::string bench)
    : format_(format), bench_(std::move(bench)) {}

void RunReporter::Section(const std::string& title) {
  section_ = title;
  table_header_printed_ = false;
  if (format_ == OutputFormat::kTable) {
    std::printf("\n=== %s ===\n", title.c_str());
  }
}

void RunReporter::PrintTableHeader() {
  std::printf("%-22s %-34s %-26s %9s %9s %10s %8s %8s %8s %8s %8s %8s %8s %8s\n",
              "scenario", "params", "engine", "tuples", "wall_ms",
              "resolns", "loaded", "probes", "seeks", "max_int", "kb_KiB",
              "idx_KiB", "int_KiB", "out_KiB");
  table_header_printed_ = true;
}

void RunReporter::EmitRow(const char* row_type, const std::string& scenario,
                          const Params& params, const char* engine_name,
                          bool ok, const std::string& error,
                          const RunStats& s, size_t tuples,
                          const std::string& box, const std::string& note) {
  // At most one of the probe counters is nonzero per engine: oracle
  // probes for Tetris-Reloaded, binary-search probes for Generic Join.
  const int64_t probes = s.oracle_probes + s.probes;
  switch (format_) {
    case OutputFormat::kTable: {
      if (!table_header_printed_) PrintTableHeader();
      // Shard sub-rows show the subcube where run rows show the params.
      const std::string detail = box.empty()
                                     ? FormatParams(params, " ", false)
                                     : box;
      if (!ok) {
        std::printf("%-22s %-34s %-26s -- skipped: %s\n", scenario.c_str(),
                    detail.c_str(), engine_name, error.c_str());
        return;
      }
      std::printf("%-22s %-34s %-26s %9zu %9.2f %10" PRId64 " %8" PRId64
                  " %8" PRId64 " %8" PRId64 " %8zu %8.1f %8.1f %8.1f %8.1f\n",
                  scenario.c_str(), detail.c_str(), engine_name, tuples,
                  s.wall_ms, s.tetris.resolutions, s.tetris.boxes_loaded,
                  probes, s.seeks, s.baseline.max_intermediate,
                  s.memory.kb_bytes / 1024.0,
                  s.memory.index_bytes / 1024.0,
                  s.memory.intermediate_bytes / 1024.0,
                  s.memory.output_bytes / 1024.0);
      return;
    }
    case OutputFormat::kCsv: {
      if (!csv_header_printed_) {
        std::printf("row_type,bench,section,scenario,params,engine,ok,"
                    "tuples,wall_ms,resolutions,boxes_loaded,kb_inserts,"
                    "skeleton_nodes,kb_nodes_visited,probes,seeks,"
                    "max_intermediate,kb_bytes,index_bytes,"
                    "intermediate_bytes,output_bytes,shards,threads,"
                    "shard_peak_bytes,est_shard_peak_bytes,plan_bytes,"
                    "box,error,note\n");
        csv_header_printed_ = true;
      }
      const std::string params_field = FormatParams(params, ";", false);
      std::printf("%s,%s,%s,%s,%s,%s,%d,%zu,%.3f,%" PRId64 ",%" PRId64
                  ",%" PRId64 ",%" PRId64 ",%" PRId64 ",%" PRId64
                  ",%" PRId64
                  ",%zu,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%s,%s,%s\n",
                  row_type, CsvField(bench_).c_str(),
                  CsvField(section_).c_str(), CsvField(scenario).c_str(),
                  params_field.c_str(), engine_name, ok ? 1 : 0, tuples,
                  s.wall_ms, s.tetris.resolutions, s.tetris.boxes_loaded,
                  s.tetris.kb_inserts, s.tetris.skeleton_nodes,
                  s.tetris.kb_nodes_visited, probes, s.seeks,
                  s.baseline.max_intermediate,
                  s.memory.kb_bytes, s.memory.index_bytes,
                  s.memory.intermediate_bytes, s.memory.output_bytes,
                  s.shards, s.threads, s.max_shard_peak_bytes,
                  s.estimated_max_shard_peak_bytes, s.plan_bytes,
                  CsvField(box).c_str(), CsvField(error).c_str(),
                  CsvField(note).c_str());
      return;
    }
    case OutputFormat::kJsonl: {
      const std::string params_field = FormatParams(params, ",", true);
      std::printf("{\"row_type\":\"%s\",\"bench\":\"%s\",\"section\":\"%s\","
                  "\"scenario\":\"%s\","
                  "\"params\":{%s},\"engine\":\"%s\",\"ok\":%s,"
                  "\"tuples\":%zu,\"wall_ms\":%.3f,\"resolutions\":%" PRId64
                  ",\"boxes_loaded\":%" PRId64 ",\"kb_inserts\":%" PRId64
                  ",\"skeleton_nodes\":%" PRId64
                  ",\"kb_nodes_visited\":%" PRId64 ",\"probes\":%" PRId64
                  ",\"seeks\":%" PRId64 ",\"max_intermediate\":%zu,"
                  "\"memory\":{\"kb_bytes\":%zu,\"index_bytes\":%zu,"
                  "\"intermediate_bytes\":%zu,\"output_bytes\":%zu},"
                  "\"shards\":%zu,\"threads\":%zu,\"shard_peak_bytes\":%zu,"
                  "\"est_shard_peak_bytes\":%zu,\"plan_bytes\":%zu"
                  "%s%s%s%s%s%s}\n",
                  row_type, JsonEscape(bench_).c_str(),
                  JsonEscape(section_).c_str(), JsonEscape(scenario).c_str(),
                  params_field.c_str(), engine_name, ok ? "true" : "false",
                  tuples, s.wall_ms, s.tetris.resolutions,
                  s.tetris.boxes_loaded, s.tetris.kb_inserts,
                  s.tetris.skeleton_nodes, s.tetris.kb_nodes_visited,
                  probes, s.seeks,
                  s.baseline.max_intermediate, s.memory.kb_bytes,
                  s.memory.index_bytes, s.memory.intermediate_bytes,
                  s.memory.output_bytes, s.shards, s.threads,
                  s.max_shard_peak_bytes, s.estimated_max_shard_peak_bytes,
                  s.plan_bytes,
                  box.empty() ? "" : ",\"box\":\"",
                  box.empty() ? "" : JsonEscape(box).c_str(),
                  box.empty() ? "" : "\"", ok ? "" : ",\"error\":\"",
                  ok ? "" : JsonEscape(error).c_str(), ok ? "" : "\"");
      return;
    }
  }
}

void RunReporter::Row(const std::string& scenario, const Params& params,
                      EngineKind engine, const EngineResult& result) {
  const std::string key = section_ + "/" + scenario;
  if (result.ok) {
    auto [it, inserted] = expected_tuples_.emplace(key, result.tuples.size());
    if (!inserted && it->second != result.tuples.size()) {
      agreed_ = false;
      Error("!! OUTPUT MISMATCH: %s: %s found %zu tuples, expected %zu",
            key.c_str(), EngineKindName(engine), result.tuples.size(),
            it->second);
    }
  }
  EmitRow("run", scenario, params, EngineKindName(engine), result.ok,
          result.error, result.stats, result.tuples.size(),
          /*box=*/"", /*note=*/"");
  // Per-shard sub-rows of a sharded run (engine/batch_runner.h):
  // skipped-empty shards report zero work and "empty shard" as their
  // error instead of stats.
  for (const ShardRunInfo& shard : result.shard_runs) {
    Params shard_params = params;
    shard_params.emplace_back("shard", static_cast<double>(shard.shard_id));
    EmitRow("shard", scenario, shard_params, EngineKindName(engine),
            !shard.skipped_empty, shard.skipped_empty
                                      ? std::string("empty shard")
                                      : std::string(),
            shard.stats, shard.output_tuples, shard.box, /*note=*/"");
  }
}

void RunReporter::BatchRow(const std::string& scenario, const Params& params,
                           const BatchRun& run) {
  const BatchResult& b = run.result;
  size_t total_tuples = 0;
  size_t ok_queries = 0;
  for (const EngineResult& r : b.results) {
    if (!r.ok) continue;
    total_tuples += r.tuples.size();
    ++ok_queries;
  }
  // Cross-engine agreement on the batch total — but only when the
  // engine evaluated every query (an engine that skips some queries,
  // like Yannakakis on the cyclic members of a mixed batch, has an
  // incomparable total).
  if (b.ok && ok_queries == b.results.size() && !b.results.empty()) {
    const std::string key = section_ + "/" + scenario;
    auto [it, inserted] = expected_tuples_.emplace(key, total_tuples);
    if (!inserted && it->second != total_tuples) {
      agreed_ = false;
      Error("!! OUTPUT MISMATCH: %s: %s batch found %zu total tuples, "
            "expected %zu",
            key.c_str(), EngineKindName(run.kind), total_tuples,
            it->second);
    }
  }
  const double qps = b.stats.wall_ms > 0.0
                         ? 1000.0 * static_cast<double>(b.stats.queries) /
                               b.stats.wall_ms
                         : 0.0;
  Params bp = params;
  bp.emplace_back("queries", static_cast<double>(b.stats.queries));
  bp.emplace_back("ok_queries", static_cast<double>(ok_queries));
  bp.emplace_back("plans", static_cast<double>(b.stats.plans));
  bp.emplace_back("index_builds", static_cast<double>(b.stats.indexes_built));
  bp.emplace_back("tasks", static_cast<double>(b.stats.tasks));
  bp.emplace_back("index_KiB", b.stats.index_bytes / 1024.0);
  bp.emplace_back("plan_KiB", b.stats.plan_bytes / 1024.0);
  bp.emplace_back("qps", qps);
  bp.emplace_back("sum_query_ms", b.stats.sum_query_ms);
  RunStats s;
  s.engine = run.kind;
  s.output_tuples = total_tuples;
  s.wall_ms = b.stats.wall_ms;
  s.threads = b.stats.threads;
  s.plan_bytes = b.stats.plan_bytes;
  s.memory.index_bytes = b.stats.index_bytes;
  EmitRow("batch", scenario, bp, EngineKindName(run.kind), b.ok, b.error, s,
          total_tuples, /*box=*/"", /*note=*/"");
}

void RunReporter::Summary(const std::string& metric, double value,
                          const std::string& expectation) {
  switch (format_) {
    case OutputFormat::kTable:
      if (expectation.empty()) {
        std::printf("-- %s = %.6g\n", metric.c_str(), value);
      } else {
        std::printf("-- %s = %.6g (%s)\n", metric.c_str(), value,
                    expectation.c_str());
      }
      return;
    case OutputFormat::kCsv:
    case OutputFormat::kJsonl: {
      // Summary rows reuse the row grid: metric in `scenario`, value in
      // `params`, expectation in `note` (csv; `error` stays a failure
      // signal) / own fields (jsonl).
      if (format_ == OutputFormat::kJsonl) {
        std::printf("{\"row_type\":\"summary\",\"bench\":\"%s\","
                    "\"section\":\"%s\",\"metric\":\"%s\",\"value\":%.6g,"
                    "\"expectation\":\"%s\"}\n",
                    JsonEscape(bench_).c_str(), JsonEscape(section_).c_str(),
                    JsonEscape(metric).c_str(), value,
                    JsonEscape(expectation).c_str());
        return;
      }
      EmitRow("summary", metric, {{"value", value}}, "-", true,
              /*error=*/"", RunStats{}, 0, /*box=*/"",
              /*note=*/expectation);
      return;
    }
  }
}

void RunReporter::Note(const char* fmt, ...) {
  if (format_ != OutputFormat::kTable) return;
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

void RunReporter::Error(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
  std::fprintf(stderr, "\n");
}

}  // namespace tetris::cli
