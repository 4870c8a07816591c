// The shared CLI harness: flag parsing (engine names, engine lists,
// formats, numeric flags, unknown-flag handling, argv stripping) and the
// RunEngines sweep semantics the bench/example binaries rely on.
#include "engine/cli.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "workload/generators.h"

namespace tetris::cli {
namespace {

// Builds a mutable argv from literals (ParseHarnessArgs rewrites it).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    ptrs_.push_back(&prog_[0]);
    for (auto& s : storage_) ptrs_.push_back(&s[0]);
    ptrs_.push_back(nullptr);
    argc_ = static_cast<int>(ptrs_.size()) - 1;
  }
  int* argc() { return &argc_; }
  char** argv() { return ptrs_.data(); }
  std::vector<std::string> Rest() const {
    std::vector<std::string> rest;
    for (int i = 1; i < argc_; ++i) rest.emplace_back(ptrs_[i]);
    return rest;
  }

 private:
  char prog_[5] = "prog";
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
  int argc_ = 0;
};

TEST(CliTest, ParseEngineKindAcceptsEveryFacadeName) {
  for (EngineKind kind : AllEngineKinds()) {
    EngineKind parsed;
    std::string error;
    EXPECT_TRUE(ParseEngineKind(EngineKindName(kind), &parsed, &error))
        << error;
    EXPECT_EQ(parsed, kind);
  }
}

TEST(CliTest, ParseEngineKindRejectsUnknownNames) {
  EngineKind parsed;
  std::string error;
  EXPECT_FALSE(ParseEngineKind("tetris", &parsed, &error));
  EXPECT_NE(error.find("unknown engine 'tetris'"), std::string::npos);
  // The error names the valid spellings.
  EXPECT_NE(error.find("tetris-preloaded"), std::string::npos);
  EXPECT_NE(error.find("pairwise-nestedloop"), std::string::npos);
}

TEST(CliTest, ParseEngineListAllExpandsToTheWholeMatrix) {
  std::vector<EngineKind> engines;
  std::string error;
  ASSERT_TRUE(ParseEngineList("all", &engines, &error)) << error;
  EXPECT_EQ(engines, AllEngineKinds());
}

TEST(CliTest, ParseEngineListSplitsAndDeduplicates) {
  std::vector<EngineKind> engines;
  std::string error;
  ASSERT_TRUE(ParseEngineList("leapfrog,tetris-reloaded,leapfrog",
                              &engines, &error))
      << error;
  ASSERT_EQ(engines.size(), 2u);
  EXPECT_EQ(engines[0], EngineKind::kLeapfrog);
  EXPECT_EQ(engines[1], EngineKind::kTetrisReloaded);
}

TEST(CliTest, ParseEngineListRejectsBadEntries) {
  std::vector<EngineKind> engines;
  std::string error;
  EXPECT_FALSE(ParseEngineList("leapfrog,bogus", &engines, &error));
  EXPECT_NE(error.find("bogus"), std::string::npos);
  EXPECT_FALSE(ParseEngineList("leapfrog,,generic-join", &engines, &error));
  EXPECT_FALSE(ParseEngineList("", &engines, &error));
}

TEST(CliTest, ParseOutputFormatRoundTripsAndRejects) {
  for (OutputFormat f : {OutputFormat::kTable, OutputFormat::kCsv,
                         OutputFormat::kJsonl}) {
    OutputFormat parsed;
    std::string error;
    EXPECT_TRUE(ParseOutputFormat(OutputFormatName(f), &parsed, &error));
    EXPECT_EQ(parsed, f);
  }
  OutputFormat parsed;
  std::string error;
  EXPECT_FALSE(ParseOutputFormat("xml", &parsed, &error));
  EXPECT_NE(error.find("xml"), std::string::npos);
}

TEST(CliTest, ParseHarnessArgsStripsFlagsAndKeepsPositionals) {
  Argv args({"data.csv:A,B", "--engine=leapfrog", "--format=csv",
             "--reps=3", "--seed=7", "--size=100", "more.csv:B,C"});
  HarnessOptions opts;
  std::string error;
  ASSERT_TRUE(ParseHarnessArgs(args.argc(), args.argv(), &opts, &error))
      << error;
  ASSERT_EQ(opts.engines.size(), 1u);
  EXPECT_EQ(opts.engines[0], EngineKind::kLeapfrog);
  EXPECT_EQ(opts.format, OutputFormat::kCsv);
  EXPECT_EQ(opts.reps, 3);
  EXPECT_EQ(opts.seed, 7u);
  EXPECT_EQ(opts.size, 100u);
  EXPECT_EQ(args.Rest(),
            (std::vector<std::string>{"data.csv:A,B", "more.csv:B,C"}));
}

TEST(CliTest, ParseHarnessArgsLeavesDefaultsAlone) {
  Argv args({"--format=jsonl"});
  HarnessOptions opts;
  opts.engines = {EngineKind::kTetrisPreloaded, EngineKind::kLeapfrog};
  std::string error;
  ASSERT_TRUE(ParseHarnessArgs(args.argc(), args.argv(), &opts, &error));
  // No --engine flag: the binary's preset line-up survives.
  EXPECT_EQ(opts.engines.size(), 2u);
  EXPECT_EQ(opts.format, OutputFormat::kJsonl);
}

TEST(CliTest, ParseHarnessArgsEnginesAll) {
  Argv args({"--engines=all"});
  HarnessOptions opts;
  std::string error;
  ASSERT_TRUE(ParseHarnessArgs(args.argc(), args.argv(), &opts, &error));
  EXPECT_EQ(opts.engines, AllEngineKinds());
}

TEST(CliTest, ParseHarnessArgsBadValuesFail) {
  for (const char* bad :
       {"--engine=nope", "--engines=leapfrog,zzz", "--format=yaml",
        "--reps=0", "--reps=abc", "--reps=-3", "--seed=1x", "--seed=-1",
        "--size=", "--size=-5"}) {
    Argv args({bad});
    HarnessOptions opts;
    std::string error;
    EXPECT_FALSE(ParseHarnessArgs(args.argc(), args.argv(), &opts, &error))
        << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(CliTest, ParseHarnessArgsUnknownFlagPolicy) {
  {
    Argv args({"--benchmark_filter=BM_RunJoin"});
    HarnessOptions opts;
    std::string error;
    EXPECT_FALSE(ParseHarnessArgs(args.argc(), args.argv(), &opts, &error));
    EXPECT_NE(error.find("--benchmark_filter"), std::string::npos);
  }
  {
    Argv args({"--benchmark_filter=BM_RunJoin", "--engine=leapfrog"});
    HarnessOptions opts;
    std::string error;
    ASSERT_TRUE(ParseHarnessArgs(args.argc(), args.argv(), &opts, &error,
                                 /*allow_unknown_flags=*/true));
    // The unknown flag passes through for google-benchmark to consume.
    EXPECT_EQ(args.Rest(),
              (std::vector<std::string>{"--benchmark_filter=BM_RunJoin"}));
    EXPECT_EQ(opts.engines,
              (std::vector<EngineKind>{EngineKind::kLeapfrog}));
  }
}

TEST(CliTest, ParseHarnessArgsHelpAndListEngines) {
  Argv args({"--list-engines", "--help"});
  HarnessOptions opts;
  std::string error;
  ASSERT_TRUE(ParseHarnessArgs(args.argc(), args.argv(), &opts, &error));
  EXPECT_TRUE(opts.list_engines);
  EXPECT_TRUE(opts.help);
}

TEST(CliTest, RunEnginesSweepsAndAgrees) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/30, /*d=*/4,
                                   /*seed=*/3);
  HarnessOptions opts;
  opts.engines = {EngineKind::kTetrisPreloaded, EngineKind::kLeapfrog,
                  EngineKind::kPairwiseHash};
  opts.reps = 2;
  auto runs = RunEngines(q.query, opts);
  ASSERT_EQ(runs.size(), 3u);
  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].kind, opts.engines[i]);
    ASSERT_TRUE(runs[i].result.ok) << runs[i].result.error;
    EXPECT_EQ(runs[i].result.tuples, runs[0].result.tuples);
  }
}

TEST(CliTest, RunEnginesDropsOrderHintForBalanceLifted) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/20, /*d=*/4,
                                   /*seed=*/5);
  HarnessOptions opts;
  opts.engines = {EngineKind::kTetrisPreloaded,
                  EngineKind::kTetrisPreloadedLB};
  EngineOptions eopts;
  eopts.order = {2, 0, 1};
  auto runs = RunEngines(q.query, opts, eopts);
  ASSERT_EQ(runs.size(), 2u);
  // Direct RunJoin rejects the hint for LB; the harness drops it instead
  // so engine sweeps include the lifted variants.
  EXPECT_TRUE(runs[0].result.ok);
  EXPECT_TRUE(runs[1].result.ok) << runs[1].result.error;
  EXPECT_EQ(runs[0].result.tuples, runs[1].result.tuples);
}

TEST(CliTest, RunEnginesReportsUnsupportedEngines) {
  QueryInstance q = RandomCycle(/*len=*/4, /*tuples_per_rel=*/30,
                                /*d=*/4, /*seed=*/2);
  HarnessOptions opts;
  opts.engines = {EngineKind::kYannakakis};
  auto runs = RunEngines(q.query, opts);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_FALSE(runs[0].result.ok);
  EXPECT_FALSE(runs[0].result.error.empty());
}

TEST(CliTest, ParseHarnessArgsShardingFlags) {
  Argv args({"--shards=8", "--threads=4", "--memory-budget=65536",
             "--parallel"});
  HarnessOptions opts;
  std::string error;
  ASSERT_TRUE(ParseHarnessArgs(args.argc(), args.argv(), &opts, &error))
      << error;
  EXPECT_EQ(opts.shards, 8);
  EXPECT_TRUE(opts.shards_set);
  EXPECT_EQ(opts.threads, 4);
  EXPECT_TRUE(opts.threads_set);
  EXPECT_EQ(opts.memory_budget, 65536u);
  EXPECT_TRUE(opts.memory_budget_set);
  EXPECT_TRUE(opts.parallel);

  // No flag, no forwarding: a binary's EngineOptions preset survives,
  // and an explicit --threads=1 can override a preset back to
  // sequential (default-value sentinels would drop it).
  Argv plain({"--format=table"});
  HarnessOptions plain_opts;
  ASSERT_TRUE(ParseHarnessArgs(plain.argc(), plain.argv(), &plain_opts,
                               &error))
      << error;
  EXPECT_FALSE(plain_opts.shards_set);
  EXPECT_FALSE(plain_opts.threads_set);
  EXPECT_FALSE(plain_opts.memory_budget_set);
  Argv seq({"--threads=1", "--shards=0"});
  HarnessOptions seq_opts;
  ASSERT_TRUE(ParseHarnessArgs(seq.argc(), seq.argv(), &seq_opts, &error));
  EXPECT_TRUE(seq_opts.threads_set);
  EXPECT_TRUE(seq_opts.shards_set);
  EXPECT_EQ(seq_opts.threads, 1);
  EXPECT_EQ(seq_opts.shards, 0);

  Argv auto_args({"--shards=auto", "--threads=auto"});
  HarnessOptions auto_opts;
  ASSERT_TRUE(ParseHarnessArgs(auto_args.argc(), auto_args.argv(),
                               &auto_opts, &error))
      << error;
  EXPECT_EQ(auto_opts.shards, kAutoShards);
  EXPECT_EQ(auto_opts.threads, 0);  // 0 = the executor's full width
}

TEST(CliTest, ParseHarnessArgsMemoryBudgetSuffixes) {
  struct Case {
    const char* flag;
    size_t bytes;
  };
  for (const Case& c : {Case{"--memory-budget=65536", 65536u},
                        Case{"--memory-budget=512K", 512u << 10},
                        Case{"--memory-budget=64M", 64u << 20},
                        Case{"--memory-budget=2G", 2ull << 30},
                        Case{"--memory-budget=3gb", 3ull << 30},
                        Case{"--memory-budget=16kb", 16u << 10}}) {
    Argv args({c.flag});
    HarnessOptions opts;
    std::string error;
    ASSERT_TRUE(ParseHarnessArgs(args.argc(), args.argv(), &opts, &error))
        << c.flag << ": " << error;
    EXPECT_EQ(opts.memory_budget, c.bytes) << c.flag;
    EXPECT_TRUE(opts.memory_budget_set);
  }
}

TEST(CliTest, ParseHarnessArgsShardingBadValuesFail) {
  // --threads=0 is rejected (zero workers cannot run anything); the
  // spelled-out form is --threads=auto. Negative and junk values get a
  // clear error in every case.
  for (const char* bad :
       {"--shards=some", "--shards=-2", "--threads=1000", "--threads=x",
        "--threads=0", "--threads=-3", "--memory-budget=big",
        "--memory-budget=64X", "--memory-budget=-5", "--memory-budget=9T",
        "--memory-budget=999999999999999999999G"}) {
    Argv args({bad});
    HarnessOptions opts;
    std::string error;
    EXPECT_FALSE(ParseHarnessArgs(args.argc(), args.argv(), &opts, &error))
        << bad;
    EXPECT_FALSE(error.empty()) << bad;
  }
}

TEST(CliTest, ParseU64FullStringWithOverflowRejection) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseU64("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseU64("18446744073709551615", &v));  // UINT64_MAX exactly
  EXPECT_EQ(v, UINT64_MAX);
  // One past the top and the 21-digit regression value must fail —
  // strtoull alone would clamp/wrap instead of reporting.
  EXPECT_FALSE(ParseU64("18446744073709551616", &v));
  EXPECT_FALSE(ParseU64("999999999999999999999", &v));
  // Junk, sign characters, and trailing garbage.
  for (const char* bad : {"", "abc", "12x", "-3", "+4", " 12", "0x10"}) {
    EXPECT_FALSE(ParseU64(bad, &v)) << bad;
  }
}

TEST(CliTest, ParseByteCountSuffixesAndOverflowRejection) {
  struct Case {
    const char* text;
    uint64_t bytes;
  };
  for (const Case& c :
       {Case{"0", 0u}, Case{"65536", 65536u}, Case{"512K", 512u << 10},
        Case{"64MB", 64u << 20}, Case{"2g", 2ull << 30},
        Case{"16kb", 16u << 10}, Case{"1B", 1u},
        // The largest byte counts each suffix can express.
        Case{"18446744073709551615", UINT64_MAX},
        Case{"17179869183G", 17179869183ull << 30}}) {
    uint64_t v = 0;
    EXPECT_TRUE(ParseByteCount(c.text, &v)) << c.text;
    EXPECT_EQ(v, c.bytes) << c.text;
  }
  // The named regressions: a digit string past UINT64_MAX, and a value
  // that only overflows after the suffix scales it. Both must be
  // rejected, never silently wrapped into a small capacity.
  uint64_t v = 0;
  EXPECT_FALSE(ParseByteCount("999999999999999999999", &v));
  EXPECT_FALSE(ParseByteCount("18446744073709551615G", &v));
  EXPECT_FALSE(ParseByteCount("17179869184G", &v));  // one unit past max
  EXPECT_FALSE(ParseByteCount("18014398509481984K", &v));
  for (const char* bad :
       {"", "K", "-5", "64X", "9T", "12 K", "1MM", "0x1M"}) {
    EXPECT_FALSE(ParseByteCount(bad, &v)) << bad;
  }
}

TEST(CliTest, FlagValueMatchesExactPrefixForm) {
  std::string value;
  EXPECT_TRUE(FlagValue("--cache-bytes=64M", "--cache-bytes", &value));
  EXPECT_EQ(value, "64M");
  EXPECT_TRUE(FlagValue("--x=", "--x", &value));
  EXPECT_EQ(value, "");
  EXPECT_FALSE(FlagValue("--cache-bytes", "--cache-bytes", &value));
  EXPECT_FALSE(FlagValue("--cache-bytes-extra=1", "--cache-bytes", &value));
  EXPECT_FALSE(FlagValue("--other=1", "--cache-bytes", &value));
}

TEST(CliTest, RunEnginesParallelMatchesSequentialSweep) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/40, /*d=*/4,
                                   /*seed=*/6);
  HarnessOptions seq;
  seq.engines = AllEngineKinds();
  auto sequential = RunEngines(q.query, seq);
  HarnessOptions par = seq;
  par.parallel = true;
  auto parallel = RunEngines(q.query, par);
  ASSERT_EQ(parallel.size(), sequential.size());
  for (size_t i = 0; i < parallel.size(); ++i) {
    SCOPED_TRACE(EngineKindName(sequential[i].kind));
    EXPECT_EQ(parallel[i].kind, sequential[i].kind);
    EXPECT_EQ(parallel[i].result.ok, sequential[i].result.ok);
    EXPECT_EQ(parallel[i].result.tuples, sequential[i].result.tuples);
  }
}

TEST(CliTest, RunEnginesForwardsShardingFlagsIntoEngineOptions) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/40, /*d=*/4,
                                   /*seed=*/7);
  HarnessOptions opts;
  opts.engines = {EngineKind::kGenericJoin};
  opts.shards = 4;
  opts.shards_set = true;
  opts.threads = 2;
  opts.threads_set = true;
  auto runs = RunEngines(q.query, opts);
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_TRUE(runs[0].result.ok) << runs[0].result.error;
  EXPECT_EQ(runs[0].result.stats.shards, 4u);
  EXPECT_EQ(runs[0].result.shard_runs.size(), 4u);
  // The sharded sweep agrees with the plain one.
  HarnessOptions plain;
  plain.engines = {EngineKind::kGenericJoin};
  auto plain_runs = RunEngines(q.query, plain);
  EXPECT_EQ(runs[0].result.tuples, plain_runs[0].result.tuples);
}

TEST(CliTest, SummaryEmitsStructuredRowsInEveryFormat) {
  {
    testing::internal::CaptureStdout();
    RunReporter rep(OutputFormat::kJsonl, "unit");
    rep.Section("fits");
    rep.Summary("resolutions_vs_agm_exponent", 1.02, "paper: 1 + o(1)");
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("\"row_type\":\"summary\""), std::string::npos);
    EXPECT_NE(out.find("\"metric\":\"resolutions_vs_agm_exponent\""),
              std::string::npos);
    EXPECT_NE(out.find("\"value\":1.02"), std::string::npos);
    EXPECT_NE(out.find("\"expectation\":\"paper: 1 + o(1)\""),
              std::string::npos);
  }
  {
    testing::internal::CaptureStdout();
    RunReporter rep(OutputFormat::kCsv, "unit");
    rep.Section("fits");
    rep.Summary("exponent", 2.5, "expected ~2");
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("row_type"), std::string::npos);  // header
    EXPECT_NE(out.find("summary,unit,fits,exponent,value=2.5"),
              std::string::npos);
    EXPECT_NE(out.find("expected ~2"), std::string::npos);
  }
  {
    testing::internal::CaptureStdout();
    RunReporter rep(OutputFormat::kTable, "unit");
    rep.Summary("exponent", 2.5, "expected ~2");
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("exponent = 2.5"), std::string::npos);
  }
}

// A JSONL row is one physical line whatever its strings hold: control
// bytes are escaped (RFC 8259 §7), by name where JSON has one.
TEST(CliTest, JsonlRowEscapesControlBytes) {
  EngineRun run;
  run.kind = EngineKind::kLeapfrog;
  run.result.ok = false;
  run.result.error = "bad\nthing\x01";
  testing::internal::CaptureStdout();
  RunReporter rep(OutputFormat::kJsonl, "unit");
  rep.Row("two\nlines\x01", {}, run.kind, run.result);
  const std::string out = testing::internal::GetCapturedStdout();
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out.find('\n'), out.size() - 1) << out;
  for (size_t i = 0; i + 1 < out.size(); ++i) {
    EXPECT_GE(static_cast<unsigned char>(out[i]), 0x20) << out;
  }
  EXPECT_NE(out.find("\"scenario\":\"two\\nlines\\u0001\""),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"error\":\"bad\\nthing\\u0001\""),
            std::string::npos)
      << out;
}

// The KB work counters are row fields, so a tool can gate them.
TEST(CliTest, RunRowsReportKbInsertsAndSkeletonNodes) {
  EngineRun run;
  run.kind = EngineKind::kTetrisPreloaded;
  run.result.ok = true;
  run.result.stats.tetris.kb_inserts = 23;
  run.result.stats.tetris.skeleton_nodes = 517;
  run.result.stats.tetris.kb_nodes_visited = 4099;
  // The shard plan's fields, the estimator audit among them.
  run.result.stats.shards = 8;
  run.result.stats.threads = 3;
  run.result.stats.max_shard_peak_bytes = 12345;
  run.result.stats.estimated_max_shard_peak_bytes = 6789;
  run.result.stats.plan_bytes = 321;
  {
    testing::internal::CaptureStdout();
    RunReporter rep(OutputFormat::kJsonl, "unit");
    rep.Row("tri", {}, run.kind, run.result);
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("\"kb_inserts\":23,\"skeleton_nodes\":517,"
                       "\"kb_nodes_visited\":4099,"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("\"shards\":8,\"threads\":3,"
                       "\"shard_peak_bytes\":12345,"
                       "\"est_shard_peak_bytes\":6789,\"plan_bytes\":321}"),
              std::string::npos)
        << out;
  }
  {
    testing::internal::CaptureStdout();
    RunReporter rep(OutputFormat::kCsv, "unit");
    rep.Row("tri", {}, run.kind, run.result);
    const std::string out = testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find(",boxes_loaded,kb_inserts,skeleton_nodes,"
                       "kb_nodes_visited,probes,"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find(",0,23,517,4099,0,"), std::string::npos) << out;
    EXPECT_NE(out.find(",shards,threads,shard_peak_bytes,"
                       "est_shard_peak_bytes,plan_bytes,box,error,note\n"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find(",8,3,12345,6789,321,,,\n"), std::string::npos) << out;
  }
}

TEST(CliTest, RowEmitsShardSubRows) {
  QueryInstance q = RandomTriangle(/*tuples_per_rel=*/30, /*d=*/4,
                                   /*seed=*/8);
  HarnessOptions opts;
  opts.engines = {EngineKind::kLeapfrog};
  opts.shards = 2;
  opts.shards_set = true;
  auto runs = RunEngines(q.query, opts);
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_TRUE(runs[0].result.ok) << runs[0].result.error;
  testing::internal::CaptureStdout();
  RunReporter rep(OutputFormat::kJsonl, "unit");
  rep.Section("sharded");
  rep.Row("tri", {{"n", 30}}, runs[0].kind, runs[0].result);
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("\"row_type\":\"run\""), std::string::npos);
  EXPECT_NE(out.find("\"row_type\":\"shard\""), std::string::npos);
  EXPECT_NE(out.find("\"shards\":2"), std::string::npos);
  EXPECT_NE(out.find("\"box\":"), std::string::npos);
  EXPECT_TRUE(rep.AllAgreed());
}

}  // namespace
}  // namespace tetris::cli
