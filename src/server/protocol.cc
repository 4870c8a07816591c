#include "server/protocol.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace tetris {

namespace {

// --- JSON reader -----------------------------------------------------

struct Parser {
  // Requests nest 3 deep (a query's tuple rows); anything past this is
  // rejected with an error row.
  static constexpr int kMaxNesting = 64;

  const std::string& text;
  size_t pos = 0;
  std::string error;
  int depth = 0;  // arrays and objects open around `pos`

  bool Fail(const std::string& msg) {
    error = msg + " at offset " + std::to_string(pos);
    return false;
  }

  void SkipSpace() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  }

  bool Literal(const char* word, JsonValue* out, JsonValue::Type type,
               bool boolean) {
    for (const char* c = word; *c != '\0'; ++c, ++pos) {
      if (pos >= text.size() || text[pos] != *c) {
        return Fail(std::string("expected '") + word + "'");
      }
    }
    out->type = type;
    out->boolean = boolean;
    return true;
  }

  bool String(std::string* out) {
    if (text[pos] != '"') return Fail("expected string");
    ++pos;
    out->clear();
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos];
      if (c == '\\') {
        ++pos;
        if (pos >= text.size()) return Fail("dangling escape");
        switch (text[pos]) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          default:
            return Fail("unsupported escape");
        }
      }
      out->push_back(c);
      ++pos;
    }
    if (pos >= text.size()) return Fail("unterminated string");
    ++pos;  // closing quote
    return true;
  }

  // The array at `pos` (its '['), element by element.
  bool Array(JsonValue* out) {
    ++pos;
    out->type = JsonValue::Type::kArray;
    SkipSpace();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return true;
    }
    while (true) {
      out->array.emplace_back();
      if (!Value(&out->array.back())) return false;
      SkipSpace();
      if (pos >= text.size()) return Fail("unterminated array");
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      if (text[pos] == ']') {
        ++pos;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  // The object at `pos` (its '{'), member by member.
  bool Object(JsonValue* out) {
    ++pos;
    out->type = JsonValue::Type::kObject;
    SkipSpace();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return true;
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (pos >= text.size() || !String(&key)) {
        return Fail("expected object key");
      }
      SkipSpace();
      if (pos >= text.size() || text[pos] != ':') {
        return Fail("expected ':'");
      }
      ++pos;
      out->object.emplace_back(std::move(key), JsonValue{});
      if (!Value(&out->object.back().second)) return false;
      SkipSpace();
      if (pos >= text.size()) return Fail("unterminated object");
      if (text[pos] == ',') {
        ++pos;
        continue;
      }
      if (text[pos] == '}') {
        ++pos;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool Value(JsonValue* out) {
    SkipSpace();
    if (pos >= text.size()) return Fail("unexpected end of input");
    const char c = text[pos];
    if (c == 'n') return Literal("null", out, JsonValue::Type::kNull, false);
    if (c == 't') return Literal("true", out, JsonValue::Type::kBool, true);
    if (c == 'f') return Literal("false", out, JsonValue::Type::kBool, false);
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return String(&out->string);
    }
    if (c == '[' || c == '{') {
      // A bound on nesting keeps one hostile line from recursing the
      // parser (and later the value's destructor) off the stack.
      if (depth == kMaxNesting) {
        return Fail("nesting deeper than " + std::to_string(kMaxNesting) +
                    " levels");
      }
      ++depth;
      const bool ok = c == '[' ? Array(out) : Object(out);
      --depth;
      return ok;
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      char* end = nullptr;
      out->type = JsonValue::Type::kNumber;
      out->number = std::strtod(text.c_str() + pos, &end);
      if (end == text.c_str() + pos) return Fail("bad number");
      pos = static_cast<size_t>(end - text.c_str());
      return true;
    }
    return Fail("unexpected character");
  }
};

// --- request decoding ------------------------------------------------

void EmitError(const std::string& op, const std::string& message,
               ServeSessionStats* stats) {
  std::printf("{\"row_type\":\"error\",\"op\":\"%s\",\"error\":\"%s\"}\n",
              cli::JsonEscape(op).c_str(),
              cli::JsonEscape(message).c_str());
  std::fflush(stdout);
  ++stats->errors;
}

// True iff `v` is a number holding a whole value in [0, bound): the one
// check before any cast of a protocol number to an integer type, where
// a fraction would truncate and an out-of-range value (or NaN) would be
// an undefined conversion.
bool IsWholeBelow(const JsonValue& v, double bound) {
  return v.type == JsonValue::Type::kNumber && v.number >= 0 &&
         v.number < bound && std::floor(v.number) == v.number;
}

bool DecodeString(const JsonValue& req, const char* field, bool required,
                  std::string* out, std::string* error) {
  const JsonValue* v = req.Find(field);
  if (v == nullptr) {
    if (required) *error = std::string(field) + ": required";
    return !required;
  }
  if (v->type != JsonValue::Type::kString) {
    *error = std::string(field) + ": want a string";
    return false;
  }
  *out = v->string;
  return true;
}

bool DecodeTuples(const JsonValue& req, std::vector<Tuple>* out,
                  std::string* error) {
  const JsonValue* v = req.Find("tuples");
  if (v == nullptr) return true;  // registering an empty relation is legal
  if (v->type != JsonValue::Type::kArray) {
    *error = "tuples: want an array of arrays";
    return false;
  }
  for (const JsonValue& row : v->array) {
    if (row.type != JsonValue::Type::kArray) {
      *error = "tuples: want an array of arrays";
      return false;
    }
    Tuple t;
    t.reserve(row.array.size());
    for (const JsonValue& cell : row.array) {
      if (!IsWholeBelow(cell, 18446744073709551616.0)) {
        *error = "tuples: want whole numbers in [0, 2^64)";
        return false;
      }
      t.push_back(static_cast<uint64_t>(cell.number));
    }
    out->push_back(std::move(t));
  }
  return true;
}

// Decodes register/replace into a Relation.
bool DecodeRelation(const JsonValue& req, Relation* out, std::string* error) {
  std::string name;
  if (!DecodeString(req, "name", /*required=*/true, &name, error)) {
    return false;
  }
  const JsonValue* attrs = req.Find("attrs");
  if (attrs == nullptr || attrs->type != JsonValue::Type::kArray ||
      attrs->array.empty()) {
    *error = "attrs: want a non-empty array of attribute names";
    return false;
  }
  std::vector<std::string> names;
  for (const JsonValue& a : attrs->array) {
    if (a.type != JsonValue::Type::kString) {
      *error = "attrs: want attribute names";
      return false;
    }
    names.push_back(a.string);
  }
  std::vector<Tuple> tuples;
  if (!DecodeTuples(req, &tuples, error)) return false;
  for (const Tuple& t : tuples) {
    if (t.size() != names.size()) {
      *error = "tuples: arity mismatch against attrs";
      return false;
    }
  }
  *out = Relation::Make(std::move(name), std::move(names), std::move(tuples));
  return true;
}

bool DecodeQuery(const JsonValue& req, QueryRequest* out,
                 std::string* scenario, std::string* error) {
  const JsonValue* rels = req.Find("relations");
  if (rels == nullptr || rels->type != JsonValue::Type::kArray ||
      rels->array.empty()) {
    *error = "relations: want a non-empty array of registered names";
    return false;
  }
  for (const JsonValue& r : rels->array) {
    if (r.type != JsonValue::Type::kString) {
      *error = "relations: want registered names";
      return false;
    }
    out->relations.push_back(r.string);
  }
  std::string engine;
  if (!DecodeString(req, "engine", /*required=*/false, &engine, error)) {
    return false;
  }
  if (!engine.empty() &&
      !cli::ParseEngineKind(engine, &out->engine, error)) {
    return false;
  }
  if (const JsonValue* order = req.Find("order")) {
    if (order->type != JsonValue::Type::kArray) {
      *error = "order: want an array of attribute ids";
      return false;
    }
    for (const JsonValue& v : order->array) {
      if (!IsWholeBelow(v, 2147483648.0)) {
        *error = "order: want attribute ids (whole numbers in [0, 2^31))";
        return false;
      }
      out->order.push_back(static_cast<int>(v.number));
    }
  }
  if (const JsonValue* depth = req.Find("depth")) {
    if (!IsWholeBelow(*depth, kMaxDepth + 1)) {
      *error = "depth: want a whole number in [0, " +
               std::to_string(kMaxDepth) + "] (0 = the data's MinDepth)";
      return false;
    }
    out->depth = static_cast<int>(depth->number);
  }
  if (const JsonValue* dl = req.Find("deadline_ms")) {
    if (dl->type != JsonValue::Type::kNumber || dl->number < 0) {
      *error = "deadline_ms: want a non-negative number";
      return false;
    }
    out->deadline_ms = dl->number;
  }
  if (const JsonValue* cache = req.Find("cache")) {
    if (cache->type != JsonValue::Type::kBool) {
      *error = "cache: want a bool";
      return false;
    }
    out->use_cache = cache->boolean;
  }
  if (!DecodeString(req, "scenario", /*required=*/false, scenario, error)) {
    return false;
  }
  return true;
}

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool ParseJson(const std::string& text, JsonValue* out, std::string* error) {
  Parser p{text, 0, {}, 0};
  *out = JsonValue{};
  if (!p.Value(out)) {
    *error = p.error;
    return false;
  }
  p.SkipSpace();
  if (p.pos != text.size()) {
    *error = "trailing garbage after JSON value";
    return false;
  }
  return true;
}

ServeSessionStats RunServeSession(std::istream& in, JoinService* service,
                                  cli::OutputFormat format) {
  ServeSessionStats stats;
  cli::RunReporter reporter(format, "serve");
  size_t query_seq = 0;
  std::string line;
  while (!stats.shutdown && std::getline(in, line)) {
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    ++stats.requests;
    JsonValue req;
    std::string error;
    if (!ParseJson(line, &req, &error) ||
        req.type != JsonValue::Type::kObject) {
      EmitError("", error.empty() ? "want a JSON object" : error, &stats);
      continue;
    }
    std::string op;
    if (!DecodeString(req, "op", /*required=*/true, &op, &error)) {
      EmitError("", error, &stats);
      continue;
    }

    if (op == "register" || op == "replace") {
      Relation rel("", {});
      if (!DecodeRelation(req, &rel, &error)) {
        EmitError(op, error, &stats);
        continue;
      }
      const std::string name = rel.name();
      const size_t tuples = rel.size();
      const bool ok = op == "register"
                          ? service->Register(std::move(rel), &error)
                          : service->Replace(std::move(rel), &error);
      if (!ok) {
        EmitError(op, error, &stats);
        continue;
      }
      std::printf(
          "{\"row_type\":\"ack\",\"op\":\"%s\",\"name\":\"%s\","
          "\"epoch\":%llu,\"tuples\":%zu}\n",
          op.c_str(), cli::JsonEscape(name).c_str(),
          static_cast<unsigned long long>(service->registry().epoch()),
          tuples);
      std::fflush(stdout);
    } else if (op == "append" || op == "delete") {
      std::string name;
      std::vector<Tuple> tuples;
      if (!DecodeString(req, "name", /*required=*/true, &name, &error) ||
          !DecodeTuples(req, &tuples, &error)) {
        EmitError(op, error, &stats);
        continue;
      }
      RelationDelta delta;
      const bool ok = op == "append"
                          ? service->AppendRows(name, tuples, &error, &delta)
                          : service->DeleteRows(name, tuples, &error, &delta);
      if (!ok) {
        EmitError(op, error, &stats);
        continue;
      }
      // added/removed are the EFFECTIVE delta — duplicates appended and
      // absentees deleted contribute nothing and survive nothing.
      std::printf(
          "{\"row_type\":\"ack\",\"op\":\"%s\",\"name\":\"%s\","
          "\"epoch\":%llu,\"tuples\":%zu,\"added\":%zu,\"removed\":%zu}\n",
          op.c_str(), cli::JsonEscape(name).c_str(),
          static_cast<unsigned long long>(delta.to_epoch), tuples.size(),
          delta.added.size(), delta.removed.size());
      std::fflush(stdout);
    } else if (op == "drop") {
      std::string name;
      if (!DecodeString(req, "name", /*required=*/true, &name, &error)) {
        EmitError(op, error, &stats);
        continue;
      }
      if (!service->Drop(name, &error)) {
        EmitError(op, error, &stats);
        continue;
      }
      std::printf(
          "{\"row_type\":\"ack\",\"op\":\"drop\",\"name\":\"%s\","
          "\"epoch\":%llu}\n",
          cli::JsonEscape(name).c_str(),
          static_cast<unsigned long long>(service->registry().epoch()));
      std::fflush(stdout);
    } else if (op == "query") {
      QueryRequest qreq;
      std::string scenario;
      if (!DecodeQuery(req, &qreq, &scenario, &error)) {
        EmitError(op, error, &stats);
        continue;
      }
      if (scenario.empty()) {
        scenario = "query#" + std::to_string(query_seq);
      }
      ++query_seq;
      const QueryResponse qresp = service->Execute(qreq);
      const cli::Params params = {
          {"cache_hit", qresp.cache_hit ? 1.0 : 0.0},
          {"patched", qresp.patched ? 1.0 : 0.0},
          {"shards_rerun", static_cast<double>(qresp.shards_rerun)},
          {"service_ms", qresp.service_ms},
          {"epoch", static_cast<double>(qresp.epoch)}};
      if (qresp.cache_hit) {
        // A hit ran no engine: its row reports its tuples and its own
        // time, not the stats and shards of the run that built the entry.
        RunStats hit;
        hit.wall_ms = qresp.service_ms;
        reporter.Row(scenario, params, qreq.engine, *qresp.result, hit);
      } else {
        reporter.Row(scenario, params, qreq.engine, *qresp.result);
      }
      std::fflush(stdout);
      if (!qresp.result->ok) ++stats.errors;
    } else if (op == "stats") {
      RelationRegistry& reg = service->registry();
      const ResultCache& cache = service->cache();
      const IndexCache& ix = reg.index_cache();
      std::printf(
          "{\"row_type\":\"stats\",\"epoch\":%llu,\"relations\":%zu,"
          "\"retired\":%zu,\"cache_entries\":%zu,\"cache_bytes\":%zu,"
          "\"cache_hits\":%zu,\"cache_misses\":%zu,"
          "\"cache_evictions\":%zu,\"cache_invalidations\":%zu,"
          "\"cache_survivals\":%zu,\"cache_patch_bases\":%zu,"
          "\"index_entries\":%zu,\"index_builds\":%zu,\"index_hits\":%zu,"
          "\"index_promotes\":%zu,\"index_compactions\":%zu,"
          "\"index_bytes\":%zu,\"patched\":%llu}\n",
          static_cast<unsigned long long>(reg.epoch()), reg.size(),
          reg.retired(), cache.entries(), cache.bytes(), cache.hits(),
          cache.misses(), cache.evictions(), cache.invalidations(),
          cache.survivals(), cache.patch_bases(), ix.entries(), ix.builds(),
          ix.hits(), ix.promotes(), ix.compactions(), ix.MemoryBytes(),
          static_cast<unsigned long long>(service->patched()));
      std::fflush(stdout);
    } else if (op == "shutdown") {
      std::printf("{\"row_type\":\"ack\",\"op\":\"shutdown\"}\n");
      std::fflush(stdout);
      stats.shutdown = true;
    } else {
      EmitError(op, "unknown op", &stats);
    }
  }
  return stats;
}

}  // namespace tetris
