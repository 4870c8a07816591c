// The serve-mode CLI entry point (examples/serve.cpp is a thin main()
// around it). Lives in src/server — the harness in engine/cli.h stays
// free of server dependencies — but sits in the tetris::cli namespace
// beside the rest of the flag surface it extends:
//
//   --serve                 accepted no-op (serve mode is this binary's
//                           only mode; the flag keeps invocations
//                           self-documenting)
//   --deadline-ms=<x>       default per-query deadline (0 = none)
//   --cache-bytes=<n[K|M|G]> result-cache capacity (0 disables)
//
// plus the shared harness flags the service applies: --format, --shards,
// --memory-budget, --list-engines and --help. Every other flag, the
// shared ones serve has no use for (--threads, --engine, --reps, ...)
// included, exits 2 as unknown. One optional positional argument names
// a session file to read instead of stdin — which is how the ctest
// smoke runs a whole session without piping.
#ifndef TETRIS_SERVER_SERVE_CLI_H_
#define TETRIS_SERVER_SERVE_CLI_H_

namespace tetris::cli {

/// Parses flags, builds the JoinService, runs one serve session on the
/// session file (argv positional) or stdin. Returns the process exit
/// code: 0 for a clean session, 1 when any error row was emitted, 2 on
/// bad flags.
int RunServe(int argc, char** argv);

}  // namespace tetris::cli

#endif  // TETRIS_SERVER_SERVE_CLI_H_
