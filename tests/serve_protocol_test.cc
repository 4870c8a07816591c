// The JSONL serving surface: the minimal JSON reader, the
// request/response session loop (server/protocol.h), and the serve CLI
// flag handling (server/serve_cli.h) including the byte-suffix cache
// capacity and its overflow rejection.
#include "server/protocol.h"

#include <cstdio>
#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "server/serve_cli.h"

namespace tetris {
namespace {

// --- the JSON reader -------------------------------------------------

JsonValue Parse(const std::string& text) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(ParseJson(text, &v, &error)) << text << ": " << error;
  return v;
}

TEST(ServeProtocolTest, JsonParsesScalarsArraysAndObjects) {
  EXPECT_EQ(Parse("null").type, JsonValue::Type::kNull);
  EXPECT_TRUE(Parse("true").boolean);
  EXPECT_FALSE(Parse("false").boolean);
  EXPECT_DOUBLE_EQ(Parse("-2.5e2").number, -250.0);
  EXPECT_EQ(Parse("\"a\\n\\\"b\\\"\"").string, "a\n\"b\"");

  JsonValue arr = Parse(" [1, [2], {}] ");
  ASSERT_EQ(arr.type, JsonValue::Type::kArray);
  ASSERT_EQ(arr.array.size(), 3u);
  EXPECT_DOUBLE_EQ(arr.array[0].number, 1.0);
  EXPECT_EQ(arr.array[1].array.size(), 1u);
  EXPECT_EQ(arr.array[2].type, JsonValue::Type::kObject);

  JsonValue obj = Parse("{\"op\":\"query\",\"n\":3,\"flags\":[true,null]}");
  ASSERT_EQ(obj.type, JsonValue::Type::kObject);
  ASSERT_NE(obj.Find("op"), nullptr);
  EXPECT_EQ(obj.Find("op")->string, "query");
  EXPECT_DOUBLE_EQ(obj.Find("n")->number, 3.0);
  EXPECT_EQ(obj.Find("flags")->array.size(), 2u);
  EXPECT_EQ(obj.Find("missing"), nullptr);
  // Find on a non-object is a null, not a crash.
  EXPECT_EQ(arr.Find("op"), nullptr);
}

TEST(ServeProtocolTest, JsonRejectsMalformedInput) {
  // The last input nests 200,000 arrays: deep enough to overflow the
  // stack of a parser that recurses without a nesting bound.
  for (const std::string& bad : std::vector<std::string>{
           "", "{", "[1,", "{\"a\":}", "{\"a\" 1}", "tru", "\"unterminated",
           "{\"a\":1} extra", "1 2", "{'a':1}", "[1 2]",
           "\"bad \\x escape\"", "nan", std::string(200000, '[')}) {
    JsonValue v;
    std::string error;
    EXPECT_FALSE(ParseJson(bad, &v, &error)) << bad.substr(0, 40);
    EXPECT_FALSE(error.empty()) << bad.substr(0, 40);
  }
}

// --- the session loop ------------------------------------------------

// Runs `text` as one session against a fresh service, returning the
// stats and leaving the emitted rows in *out.
ServeSessionStats RunSession(const std::string& text, std::string* out,
                             ServiceOptions options = {}) {
  JoinService service(options);
  std::istringstream in(text);
  testing::internal::CaptureStdout();
  ServeSessionStats stats =
      RunServeSession(in, &service, cli::OutputFormat::kJsonl);
  *out = testing::internal::GetCapturedStdout();
  return stats;
}

TEST(ServeProtocolTest, SessionRegistersQueriesAndHitsTheCache) {
  const std::string session =
      "# a comment and a blank line are free\n"
      "\n"
      "{\"op\":\"register\",\"name\":\"R\",\"attrs\":[\"a\",\"b\"],"
      "\"tuples\":[[1,2],[2,3]]}\n"
      "{\"op\":\"register\",\"name\":\"S\",\"attrs\":[\"b\",\"c\"],"
      "\"tuples\":[[2,5],[3,7]]}\n"
      "{\"op\":\"query\",\"relations\":[\"R\",\"S\"],\"scenario\":\"path\"}\n"
      "{\"op\":\"query\",\"relations\":[\"R\",\"S\"],\"scenario\":\"path\"}\n"
      "{\"op\":\"stats\"}\n"
      "{\"op\":\"shutdown\"}\n";
  std::string out;
  const ServeSessionStats stats = RunSession(session, &out);
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_TRUE(stats.shutdown);

  // Acks carry the epoch; the repeated query is served from the cache;
  // stats is one structured row.
  EXPECT_NE(out.find("\"row_type\":\"ack\",\"op\":\"register\","
                     "\"name\":\"R\",\"epoch\":1"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"row_type\":\"run\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"scenario\":\"path\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"cache_hit\":1"), std::string::npos) << out;
  EXPECT_NE(out.find("\"row_type\":\"stats\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"cache_hits\":1"), std::string::npos) << out;
  // Index-cache promotion counters are part of the stats row (no
  // mutation in this session, so both are zero).
  EXPECT_NE(out.find("\"index_promotes\":0"), std::string::npos) << out;
  EXPECT_NE(out.find("\"index_compactions\":0"), std::string::npos) << out;
  EXPECT_NE(out.find("\"row_type\":\"ack\",\"op\":\"shutdown\""),
            std::string::npos)
      << out;
}

// A cache hit runs no engine, so its run row reports the hit itself: its
// tuples, its own time (wall_ms is its service_ms), zero engine work and
// memory, and no shard sub-rows; not the cold run that built the entry.
TEST(ServeProtocolTest, CacheHitRowsReportTheHitNotTheColdRun) {
  const std::string session =
      "{\"op\":\"register\",\"name\":\"R\",\"attrs\":[\"a\",\"b\"],"
      "\"tuples\":[[1,2],[2,3],[3,1],[1,4]]}\n"
      "{\"op\":\"register\",\"name\":\"S\",\"attrs\":[\"b\",\"c\"],"
      "\"tuples\":[[2,3],[3,1],[1,2],[4,4]]}\n"
      "{\"op\":\"register\",\"name\":\"T\",\"attrs\":[\"c\",\"a\"],"
      "\"tuples\":[[3,1],[1,2],[2,3],[4,1]]}\n"
      "{\"op\":\"query\",\"relations\":[\"R\",\"S\",\"T\"],"
      "\"scenario\":\"cold\"}\n"
      "{\"op\":\"query\",\"relations\":[\"R\",\"S\",\"T\"],"
      "\"scenario\":\"hit\"}\n";
  // The counters a run row prints after wall_ms, in CSV column order.
  const std::vector<std::string> work = {
      "resolutions", "boxes_loaded", "kb_inserts", "skeleton_nodes",
      "kb_nodes_visited", "probes", "seeks", "max_intermediate", "kb_bytes",
      "index_bytes", "intermediate_bytes", "output_bytes", "shards",
      "threads", "shard_peak_bytes", "est_shard_peak_bytes", "plan_bytes"};
  // One row as name -> value: JSONL rows flattened (params and memory
  // included), CSV rows by the header, params split on ';'.
  using Row = std::map<std::string, std::string>;
  for (cli::OutputFormat format :
       {cli::OutputFormat::kJsonl, cli::OutputFormat::kCsv}) {
    const bool jsonl = format == cli::OutputFormat::kJsonl;
    SCOPED_TRACE(jsonl ? "jsonl" : "csv");
    ServiceOptions options;
    options.shards = 4;
    JoinService service(options);
    std::istringstream in(session);
    testing::internal::CaptureStdout();
    const ServeSessionStats stats = RunServeSession(in, &service, format);
    const std::string out = testing::internal::GetCapturedStdout();
    ASSERT_EQ(stats.errors, 0u) << out;

    std::vector<Row> rows;
    std::vector<std::string> header;
    std::istringstream lines(out);
    for (std::string line; std::getline(lines, line);) {
      Row row;
      if (jsonl) {
        const JsonValue v = Parse(line);
        std::vector<const JsonValue*> objects = {&v};
        for (const char* nested : {"params", "memory"}) {
          if (const JsonValue* o = v.Find(nested)) objects.push_back(o);
        }
        for (const JsonValue* o : objects) {
          for (const auto& [key, value] : o->object) {
            row[key] = value.type == JsonValue::Type::kString
                           ? value.string
                           : std::to_string(value.number);
          }
        }
      } else if (line[0] != '{') {  // acks are JSON in every format
        // Run rows quote nothing (no box, error or note), so a comma
        // split is exact for them; shard rows only need their type.
        std::vector<std::string> fields;
        std::istringstream cells(line);
        for (std::string f; std::getline(cells, f, ',');) fields.push_back(f);
        if (header.empty()) {
          header = fields;
          continue;
        }
        for (size_t i = 0; i < fields.size() && i < header.size(); ++i) {
          row[header[i]] = fields[i];
        }
        std::istringstream params(row["params"]);
        for (std::string kv; std::getline(params, kv, ';');) {
          row[kv.substr(0, kv.find('='))] = kv.substr(kv.find('=') + 1);
        }
      }
      if (row["row_type"] == "run" || row["row_type"] == "shard") {
        rows.push_back(row);
      }
    }
    auto count = [&](const std::string& type, const std::string& scenario) {
      return std::count_if(rows.begin(), rows.end(), [&](const Row& r) {
        return r.at("row_type") == type && r.at("scenario") == scenario;
      });
    };
    auto run_row = [&](const std::string& scenario) {
      return *std::find_if(rows.begin(), rows.end(), [&](const Row& r) {
        return r.at("row_type") == "run" && r.at("scenario") == scenario;
      });
    };
    ASSERT_EQ(count("run", "cold"), 1);
    ASSERT_EQ(count("run", "hit"), 1);
    Row cold = run_row("cold");
    Row hit = run_row("hit");
    // The cold run did the work, on four shards.
    EXPECT_EQ(std::stod(cold["cache_hit"]), 0.0);
    EXPECT_GT(std::stod(cold["resolutions"]), 0.0);
    EXPECT_EQ(count("shard", "cold"), 4);
    // The hit: the same tuples, its own time, no work, no shards.
    EXPECT_EQ(std::stod(hit["cache_hit"]), 1.0);
    EXPECT_EQ(hit["tuples"], cold["tuples"]);
    EXPECT_NEAR(std::stod(hit["wall_ms"]), std::stod(hit["service_ms"]),
                0.0006);
    for (const std::string& name : work) {
      EXPECT_EQ(std::stod(hit[name]), 0.0) << name;
    }
    EXPECT_EQ(count("shard", "hit"), 0);
  }
}

TEST(ServeProtocolTest, SessionErrorsAreCountedAndNonFatal) {
  const std::string session =
      "this is not json\n"
      "{\"op\":\"frobnicate\"}\n"
      "{\"no_op\":1}\n"
      "{\"op\":\"query\",\"relations\":[\"R\"]}\n"
      "{\"op\":\"register\",\"name\":\"R\",\"attrs\":[\"a\",\"b\"],"
      "\"tuples\":[[1,2]]}\n"
      "{\"op\":\"register\",\"name\":\"R\",\"attrs\":[\"a\",\"b\"]}\n"
      "{\"op\":\"append\",\"name\":\"R\",\"tuples\":[[1,2,3]]}\n"
      "{\"op\":\"query\",\"relations\":[\"R\"]}\n";
  std::string out;
  const ServeSessionStats stats = RunSession(session, &out);
  EXPECT_EQ(stats.requests, 8u);
  // bad json, unknown op, missing op, unknown relation, duplicate
  // register, arity-mismatched append — the final query still works.
  EXPECT_EQ(stats.errors, 6u);
  EXPECT_FALSE(stats.shutdown);  // ended by EOF, not shutdown
  EXPECT_NE(out.find("\"row_type\":\"error\",\"op\":\"frobnicate\","
                     "\"error\":\"unknown op\""),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("unknown relation 'R'"), std::string::npos) << out;
  EXPECT_NE(out.find("already registered"), std::string::npos) << out;
  EXPECT_NE(out.find("arity"), std::string::npos) << out;
  EXPECT_NE(out.find("\"row_type\":\"run\""), std::string::npos) << out;
}

TEST(ServeProtocolTest, SessionMutationsInvalidateAcrossEpochs) {
  const std::string session =
      "{\"op\":\"register\",\"name\":\"R\",\"attrs\":[\"a\",\"b\"],"
      "\"tuples\":[[1,2]]}\n"
      "{\"op\":\"register\",\"name\":\"S\",\"attrs\":[\"b\",\"c\"],"
      "\"tuples\":[[2,3]]}\n"
      "{\"op\":\"query\",\"relations\":[\"R\",\"S\"],\"scenario\":\"q1\"}\n"
      "{\"op\":\"replace\",\"name\":\"S\",\"attrs\":[\"b\",\"c\"],"
      "\"tuples\":[[9,9]]}\n"
      "{\"op\":\"query\",\"relations\":[\"R\",\"S\"],\"scenario\":\"q2\"}\n"
      "{\"op\":\"drop\",\"name\":\"S\"}\n"
      "{\"op\":\"query\",\"relations\":[\"R\",\"S\"],\"scenario\":\"q3\"}\n";
  std::string out;
  const ServeSessionStats stats = RunSession(session, &out);
  EXPECT_EQ(stats.requests, 7u);
  // Only q3 fails (S was dropped); q2 re-ran against the new version.
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_NE(out.find("\"op\":\"replace\",\"name\":\"S\",\"epoch\":3"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"op\":\"drop\",\"name\":\"S\",\"epoch\":4"),
            std::string::npos)
      << out;
  // q2 saw the replaced (empty-join) version, not the cached q1 result.
  EXPECT_NE(out.find("\"scenario\":\"q2\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"tuples\":0"), std::string::npos) << out;
}

// Request strings echoed into rows come back escaped (RFC 8259 §7): a
// control byte in a name or scenario neither splits a row nor sits raw
// inside a JSON string.
TEST(ServeProtocolTest, ControlBytesInRequestStringsStayEscaped) {
  const std::string session =
      "{\"op\":\"drop\",\"name\":\"no\\nsuch\"}\n"
      "{\"op\":\"register\",\"name\":\"R\\tx\",\"attrs\":[\"a\",\"b\"],"
      "\"tuples\":[[1,2],[2,3]]}\n"
      "{\"op\":\"register\",\"name\":\"S\",\"attrs\":[\"b\",\"c\"],"
      "\"tuples\":[[2,5],[3,7]]}\n"
      "{\"op\":\"query\",\"relations\":[\"R\\tx\",\"S\"],"
      "\"scenario\":\"two\\nlines\"}\n";
  std::string out;
  const ServeSessionStats stats = RunSession(session, &out);
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.errors, 1u);  // the drop of an unknown relation

  // Every physical line is one whole row, and reading it back gives the
  // request's strings unchanged.
  std::istringstream lines(out);
  std::string line;
  int errors = 0, acks = 0, runs = 0, shards = 0;
  while (std::getline(lines, line)) {
    for (char c : line) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << line;
    }
    JsonValue row;
    std::string error;
    ASSERT_TRUE(ParseJson(line, &row, &error)) << line << ": " << error;
    auto field = [&row](const char* key) {
      const JsonValue* v = row.Find(key);
      return v ? v->string : std::string("<missing>");
    };
    const std::string type = field("row_type");
    if (type == "error") {
      ++errors;
      EXPECT_EQ(field("error"), "relation 'no\nsuch' is not registered");
    } else if (type == "ack") {
      ++acks;
      EXPECT_TRUE(field("name") == "R\tx" || field("name") == "S") << line;
    } else {
      ASSERT_TRUE(type == "run" || type == "shard") << line;
      if (type == "run") {
        ++runs;
      } else {
        ++shards;
      }
      EXPECT_EQ(field("scenario"), "two\nlines");
    }
  }
  EXPECT_EQ(errors, 1);
  EXPECT_EQ(acks, 2);
  EXPECT_EQ(runs, 1);
  EXPECT_GT(shards, 0);
}

// A protocol number that becomes an integer must be whole and in range:
// a fraction would be truncated and an out-of-range value is an undefined
// cast, so each of these is an error row, never an ack or an answer.
TEST(ServeProtocolTest, NonIntegralOrOutOfRangeNumbersAreErrorRows) {
  const std::string reg =
      "{\"op\":\"register\",\"name\":\"R\",\"attrs\":[\"a\",\"b\"],"
      "\"tuples\":[[1,2],[3,4]]}\n"
      "{\"op\":\"register\",\"name\":\"S\",\"attrs\":[\"b\",\"c\"],"
      "\"tuples\":[[2,5],[4,6]]}\n";
  const struct {
    const char* line;
    const char* error;
  } bad[] = {
      {"{\"op\":\"register\",\"name\":\"T\",\"attrs\":[\"a\",\"b\"],"
       "\"tuples\":[[1.5,2]]}",
       "tuples: want whole numbers"},
      {"{\"op\":\"append\",\"name\":\"R\",\"tuples\":[[1e20,2]]}",
       "tuples: want whole numbers"},
      {"{\"op\":\"query\",\"relations\":[\"R\",\"S\"],\"depth\":3.9}",
       "depth: want a whole number"},
      {"{\"op\":\"query\",\"relations\":[\"R\",\"S\"],\"depth\":1e30}",
       "depth: want a whole number"},
      {"{\"op\":\"query\",\"relations\":[\"R\",\"S\"],\"depth\":100}",
       "depth: want a whole number"},
      {"{\"op\":\"query\",\"relations\":[\"R\",\"S\"],"
       "\"order\":[0.2,1.7,2]}",
       "order: want attribute ids"},
      {"{\"op\":\"query\",\"relations\":[\"R\",\"S\"],"
       "\"order\":[0,1,4294967298]}",
       "order: want attribute ids"},
  };
  for (const auto& b : bad) {
    SCOPED_TRACE(b.line);
    std::string out;
    const ServeSessionStats stats =
        RunSession(reg + b.line + "\n", &out);
    EXPECT_EQ(stats.errors, 1u) << out;
    EXPECT_NE(out.find("\"row_type\":\"error\""), std::string::npos) << out;
    EXPECT_NE(out.find(b.error), std::string::npos) << out;
    EXPECT_EQ(out.find("\"row_type\":\"run\""), std::string::npos) << out;
  }
  // In range, the same fields still work.
  std::string out;
  const ServeSessionStats ok = RunSession(
      reg +
          "{\"op\":\"query\",\"relations\":[\"R\",\"S\"],"
          "\"order\":[0,1,2],\"depth\":62}\n",
      &out);
  EXPECT_EQ(ok.errors, 0u) << out;
  EXPECT_NE(out.find("\"tuples\":2"), std::string::npos) << out;
}

// Served queries on values past the deepest dyadic grid: the Tetris
// family answers with an error row, never with wrong tuples; Leapfrog
// still answers.
TEST(ServeProtocolTest, SessionRejectsGridsDeeperThanMaxDepth) {
  const std::string session =
      "{\"op\":\"register\",\"name\":\"R\",\"attrs\":[\"a\",\"b\"],"
      "\"tuples\":[[9300000000000000000,2],[3,4]]}\n"
      "{\"op\":\"register\",\"name\":\"S\",\"attrs\":[\"b\",\"c\"],"
      "\"tuples\":[[2,5],[4,6]]}\n"
      "{\"op\":\"query\",\"relations\":[\"R\",\"S\"],"
      "\"scenario\":\"deep_default\"}\n"
      "{\"op\":\"query\",\"relations\":[\"R\",\"S\"],"
      "\"engine\":\"leapfrog\",\"scenario\":\"deep_leapfrog\"}\n";
  std::string out;
  const ServeSessionStats stats = RunSession(session, &out);
  EXPECT_EQ(stats.errors, 1u) << out;
  const size_t def = out.find("\"scenario\":\"deep_default\"");
  const size_t lf = out.find("\"scenario\":\"deep_leapfrog\"");
  ASSERT_NE(def, std::string::npos) << out;
  ASSERT_NE(lf, std::string::npos) << out;
  const std::string def_row = out.substr(def, out.find('\n', def) - def);
  const std::string lf_row = out.substr(lf, out.find('\n', lf) - lf);
  EXPECT_NE(def_row.find("\"ok\":false"), std::string::npos) << def_row;
  EXPECT_NE(def_row.find(kGridTooDeepError), std::string::npos) << def_row;
  EXPECT_NE(lf_row.find("\"ok\":true"), std::string::npos) << lf_row;
  EXPECT_NE(lf_row.find("\"tuples\":2"), std::string::npos) << lf_row;
}

// --- the serve CLI ---------------------------------------------------

// Builds a mutable argv from literals (RunServe rewrites it).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : storage_(std::move(args)) {
    ptrs_.push_back(&prog_[0]);
    for (auto& s : storage_) ptrs_.push_back(&s[0]);
    ptrs_.push_back(nullptr);
    argc_ = static_cast<int>(ptrs_.size()) - 1;
  }
  int argc() { return argc_; }
  char** argv() { return ptrs_.data(); }

 private:
  char prog_[6] = "serve";
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
  int argc_ = 0;
};

// Writes a session file under the test temp dir and returns its path.
std::string WriteSessionFile(const char* name, const std::string& text) {
  const std::string path = testing::TempDir() + name;
  std::ofstream f(path);
  f << text;
  EXPECT_TRUE(f.good());
  return path;
}

TEST(ServeProtocolTest, RunServeReplaysASessionFile) {
  const std::string path = WriteSessionFile(
      "serve_ok.jsonl",
      "{\"op\":\"register\",\"name\":\"R\",\"attrs\":[\"a\",\"b\"],"
      "\"tuples\":[[1,2]]}\n"
      "{\"op\":\"query\",\"relations\":[\"R\"]}\n"
      "{\"op\":\"shutdown\"}\n");
  Argv args({"--serve", "--deadline-ms=60000", "--cache-bytes=1M",
             "--format=jsonl", "--shards=auto", "--memory-budget=64M", path});
  testing::internal::CaptureStdout();
  const int exit_code = cli::RunServe(args.argc(), args.argv());
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(exit_code, 0) << out;
  EXPECT_NE(out.find("\"row_type\":\"run\""), std::string::npos) << out;
  std::remove(path.c_str());
}

TEST(ServeProtocolTest, RunServeExitCodesFollowTheSession) {
  const std::string path = WriteSessionFile(
      "serve_err.jsonl", "{\"op\":\"query\",\"relations\":[\"R\"]}\n");
  Argv args({path});
  testing::internal::CaptureStdout();
  const int exit_code = cli::RunServe(args.argc(), args.argv());
  testing::internal::GetCapturedStdout();
  EXPECT_EQ(exit_code, 1);  // the unknown-relation error row
  std::remove(path.c_str());
}

// A line nested far past any request gets an error row and the session
// goes on: the next line is still served, and the error makes the exit
// code 1.
TEST(ServeProtocolTest, RunServeSurvivesADeeplyNestedLine) {
  const std::string path = WriteSessionFile(
      "serve_deep.jsonl",
      std::string(200000, '[') + "\n" +
          "{\"op\":\"register\",\"name\":\"R\",\"attrs\":[\"a\",\"b\"],"
          "\"tuples\":[[1,2]]}\n"
          "{\"op\":\"query\",\"relations\":[\"R\"]}\n");
  Argv args({path});
  testing::internal::CaptureStdout();
  const int exit_code = cli::RunServe(args.argc(), args.argv());
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(exit_code, 1) << out;
  EXPECT_NE(out.find("\"row_type\":\"error\""), std::string::npos) << out;
  EXPECT_NE(out.find("nesting deeper than"), std::string::npos) << out;
  EXPECT_NE(out.find("\"row_type\":\"run\""), std::string::npos) << out;
  std::remove(path.c_str());
}

// A served query plans shard boxes of one dimension per attribute, and a
// DyadicBox holds 16: a query over one 17-column relation gets an error
// row on every Tetris engine and on leapfrog, never a signal, and the
// session exits 1. The Tetris family also builds a box component per
// column of an atom, so a 17-column relation whose columns all name one
// attribute gets an error row there too, while leapfrog answers it (its
// shard boxes have one dimension); with 16 such columns every engine
// answers: (0) and (1).
TEST(ServeProtocolTest, RunServeRejectsQueriesWiderThanADyadicBox) {
  // A register line for `name` with `cols` columns, named a0, a1, ... or
  // all "A", holding the all-0 and all-1 rows.
  auto relation = [](const std::string& name, int cols, bool one_attr) {
    std::string attrs, zeros, ones;
    for (int c = 0; c < cols; ++c) {
      const std::string sep = c == 0 ? "" : ",";
      attrs += sep + (one_attr ? "\"A\"" : "\"a" + std::to_string(c) + "\"");
      zeros += sep + "0";
      ones += sep + "1";
    }
    return "{\"op\":\"register\",\"name\":\"" + name + "\",\"attrs\":[" +
           attrs + "],\"tuples\":[[" + zeros + "],[" + ones + "]]}\n";
  };
  std::string session = relation("W", 17, false) + relation("A17", 17, true) +
                        relation("A16", 16, true);
  const std::vector<std::string> rels = {"W", "A17", "A16"};
  const std::vector<std::string> engines = {
      "tetris-preloaded",   "tetris-reloaded",    "tetris-preloaded-nocache",
      "tetris-preloaded-lb", "tetris-reloaded-lb", "leapfrog"};
  for (const std::string& rel : rels) {
    for (const std::string& engine : engines) {
      session += "{\"op\":\"query\",\"relations\":[\"" + rel +
                 "\"],\"engine\":\"" + engine + "\",\"scenario\":\"" + rel +
                 "_" + engine + "\"}\n";
    }
  }
  const std::string path = WriteSessionFile("serve_wide.jsonl", session);
  Argv args({path});
  testing::internal::CaptureStdout();
  const int exit_code = cli::RunServe(args.argc(), args.argv());
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(exit_code, 1) << out;
  for (const std::string& rel : rels) {
    for (const std::string& engine : engines) {
      SCOPED_TRACE(rel + " on " + engine);
      const size_t at = out.find("\"scenario\":\"" + rel + "_" + engine + "\"");
      ASSERT_NE(at, std::string::npos) << out;
      const std::string row = out.substr(at, out.find('\n', at) - at);
      if (rel == "W" || (rel == "A17" && engine != "leapfrog")) {
        EXPECT_NE(row.find("\"ok\":false"), std::string::npos) << row;
        EXPECT_NE(row.find(kQueryTooWideError), std::string::npos) << row;
      } else {
        EXPECT_NE(row.find("\"ok\":true,\"tuples\":2,"), std::string::npos)
            << row;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ServeProtocolTest, RunServeRejectsBadFlags) {
  // Overflowing byte counts — the named ParseByteCount regressions —
  // and junk values must fail flag parsing (exit 2), not wrap silently.
  // So must the shared harness flags the service would ignore (it runs
  // every query at the executor's full width, on the engine the request
  // names, once), and admission limits: a session runs one request at a
  // time, so the service has none. Each runs over an empty session file.
  const std::string path = WriteSessionFile("serve_empty.jsonl", "");
  for (const char* bad :
       {"--cache-bytes=18446744073709551615G",
        "--cache-bytes=999999999999999999999", "--cache-bytes=64X",
        "--deadline-ms=soon", "--deadline-ms=-5", "--threads=1",
        "--engine=leapfrog", "--engines=all", "--reps=5", "--seed=3",
        "--size=10", "--parallel", "--batch=4", "--queries=specs.txt",
        "--max-inflight=1", "--max-queued=1", "--shed-cost-bytes=1"}) {
    Argv args({bad, path});
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const int exit_code = cli::RunServe(args.argc(), args.argv());
    testing::internal::GetCapturedStdout();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(exit_code, 2) << bad;
    const std::string flag(bad);
    EXPECT_NE(err.find(flag.substr(0, flag.find('='))), std::string::npos)
        << err;
  }
  std::remove(path.c_str());
  // A missing session file is a startup failure, not a session error.
  Argv missing({"/nonexistent/session.jsonl"});
  testing::internal::CaptureStdout();
  const int exit_code = cli::RunServe(missing.argc(), missing.argv());
  testing::internal::GetCapturedStdout();
  EXPECT_EQ(exit_code, 2);
}

TEST(ServeProtocolTest, RunServeHelpListsOnlyTheFlagsItApplies) {
  Argv args({"--help"});
  testing::internal::CaptureStdout();
  const int exit_code = cli::RunServe(args.argc(), args.argv());
  const std::string out = testing::internal::GetCapturedStdout();
  EXPECT_EQ(exit_code, 0);
  for (const char* flag :
       {"--serve", "--deadline-ms", "--cache-bytes", "--format", "--shards",
        "--memory-budget", "--list-engines", "--help"}) {
    EXPECT_NE(out.find(flag), std::string::npos) << flag << "\n" << out;
  }
  for (const char* flag :
       {"--threads", "--engine", "--reps", "--seed", "--size", "--parallel",
        "--batch", "--queries", "--max-inflight"}) {
    EXPECT_EQ(out.find(flag), std::string::npos) << flag << "\n" << out;
  }
}

}  // namespace
}  // namespace tetris
