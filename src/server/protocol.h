// JSONL request/response protocol over the join service.
//
// One request per line on the input stream, one (or more) response rows
// per request on stdout. Ops:
//
//   {"op":"register","name":"R","attrs":["a","b"],"tuples":[[1,2],...]}
//   {"op":"replace", ...same fields...}
//   {"op":"append","name":"R","tuples":[[3,4],...]}
//   {"op":"delete","name":"R","tuples":[[3,4],...]}
//   {"op":"drop","name":"R"}
//   {"op":"query","relations":["R","S","T"],"engine":"tetris_preloaded",
//    "order":[0,1,2],"depth":4,"deadline_ms":50,"cache":true,
//    "scenario":"triangle"}          // everything but "relations" optional
//   {"op":"stats"}
//   {"op":"shutdown"}
//
// Query responses reuse the cli::RunReporter row schema (`row_type=run`
// rows, plus shard sub-rows for sharded runs) so the same tooling that
// parses bench output parses serve output; the service-level fields
// ride in the row's params (cache_hit, patched, shards_rerun,
// service_ms, epoch). A cache hit's row reports the hit itself: its
// tuples, wall_ms = service_ms, zero engine work and memory, and no shard
// sub-rows. append/delete acks report the EFFECTIVE delta
// (`added`/`removed` — what actually changed after duplicate and
// absentee filtering), which is also what decides whether cached
// results survive, get patched, or get recomputed.
// Numbers that become integers are checked before the cast: tuple cells
// must be whole numbers in [0, 2^64), order ids whole numbers in
// [0, 2^31) and depth a whole number in [0, kMaxDepth]; anything else
// (a fraction, an overflow, a negative) is an error row.
// Every other response is a single JSONL object: `row_type=ack` /
// `row_type=stats` on success, `row_type=error` (with the op echoed) on
// failure. Malformed lines produce an error row and the session
// continues; '#' comments and blank lines are ignored — which makes a
// session file (examples/serve_session.jsonl) a self-documenting smoke
// test.
//
// The tiny JSON reader below is deliberately minimal (objects, arrays,
// strings with basic escapes, numbers, bools, null) — the repo takes no
// JSON dependency for one protocol.
#ifndef TETRIS_SERVER_PROTOCOL_H_
#define TETRIS_SERVER_PROTOCOL_H_

#include <istream>
#include <string>
#include <utility>
#include <vector>

#include "engine/cli.h"
#include "server/join_service.h"

namespace tetris {

/// A parsed JSON value (tree-owned).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;
};

/// Parses one complete JSON document. False (with *error set) on
/// malformed input or trailing garbage.
bool ParseJson(const std::string& text, JsonValue* out, std::string* error);

/// What one serve session did (examples/serve.cpp turns `errors` into
/// its exit status).
struct ServeSessionStats {
  size_t requests = 0;  ///< non-blank, non-comment lines consumed
  size_t errors = 0;    ///< error rows emitted
  bool shutdown = false;  ///< session ended by a shutdown op (not EOF)
};

/// Reads requests from `in` until EOF or shutdown, emitting response
/// rows on stdout via a cli::RunReporter in `format` (ack/error/stats
/// rows are always JSONL).
ServeSessionStats RunServeSession(std::istream& in, JoinService* service,
                                  cli::OutputFormat format);

}  // namespace tetris

#endif  // TETRIS_SERVER_PROTOCOL_H_
