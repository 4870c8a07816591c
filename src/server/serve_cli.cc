#include "server/serve_cli.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "engine/cli.h"
#include "server/join_service.h"
#include "server/protocol.h"

namespace tetris::cli {

namespace {

void PrintServeUsage() {
  std::printf(
      "serve flags:\n"
      "  --serve                  accepted no-op (self-documenting mode "
      "switch)\n"
      "  --deadline-ms=<x>        default per-query deadline in ms (0 = "
      "none)\n"
      "  --cache-bytes=<n[K|M|G]> result-cache capacity (0 disables; "
      "default 64M)\n"
      "  --format=table|csv|jsonl  run-row format (default: jsonl)\n"
      "  --shards=<n|auto>        dyadic-prefix shards per query plan "
      "(default: auto)\n"
      "  --memory-budget=<n[K|M|G]> per-shard resident budget (0 = none)\n"
      "  --list-engines           print the engine names a query may "
      "name, then exit\n"
      "  --help                   this text\n"
      "  <session-file>           read requests from a file instead of "
      "stdin\n");
}

// The shared harness flags the service applies; ParseHarnessArgs
// parses them below.
bool IsServeHarnessFlag(const char* arg) {
  std::string value;
  return FlagValue(arg, "--format", &value) ||
         FlagValue(arg, "--shards", &value) ||
         FlagValue(arg, "--memory-budget", &value) ||
         std::strcmp(arg, "--list-engines") == 0;
}

}  // namespace

int RunServe(int argc, char** argv) {
  ServiceOptions sopts;

  // Strip the serve-specific flags before the shared harness parse, and
  // refuse the shared flags the service would ignore.
  int kept = 1;
  bool bad = false;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (std::strcmp(argv[i], "--serve") == 0) {
      continue;  // accepted no-op
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      std::printf("serve: resident join service over a JSONL session "
                  "(src/server/protocol.h documents the ops)\n\n");
      PrintServeUsage();
      return 0;
    } else if (FlagValue(argv[i], "--deadline-ms", &value)) {
      char* end = nullptr;
      const double ms = std::strtod(value.c_str(), &end);
      if (end != value.c_str() + value.size() || ms < 0) {
        std::fprintf(stderr, "--deadline-ms: want a non-negative number, "
                             "got '%s'\n", value.c_str());
        bad = true;
      }
      sopts.default_deadline_ms = ms;
    } else if (FlagValue(argv[i], "--cache-bytes", &value)) {
      uint64_t bytes = 0;
      if (!ParseByteCount(value, &bytes)) {
        std::fprintf(stderr, "--cache-bytes: want a byte count like 65536, "
                             "512K, 64M or 2G, got '%s'\n", value.c_str());
        bad = true;
      }
      sopts.cache_bytes = static_cast<size_t>(bytes);
    } else if (std::strncmp(argv[i], "--", 2) == 0 &&
               !IsServeHarnessFlag(argv[i])) {
      std::fprintf(stderr, "serve: unknown flag '%s' (see --help)\n",
                   argv[i]);
      bad = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  if (bad) return 2;
  argc = kept;

  HarnessOptions hopts;
  hopts.format = OutputFormat::kJsonl;  // protocol default; --format wins
  if (auto exit_code = HandleStartup(
          &argc, argv, &hopts,
          "serve: resident join service over a JSONL session")) {
    return *exit_code;
  }
  if (hopts.shards_set) sopts.shards = hopts.shards;
  if (hopts.memory_budget_set) sopts.memory_budget_bytes = hopts.memory_budget;

  if (argc > 2) {
    std::fprintf(stderr, "serve: want at most one session file, got %d "
                         "positional arguments\n", argc - 1);
    return 2;
  }
  std::ifstream file;
  if (argc == 2) {
    file.open(argv[1]);
    if (!file) {
      std::fprintf(stderr, "serve: cannot read session file '%s'\n", argv[1]);
      return 2;
    }
  }

  JoinService service(sopts);
  const ServeSessionStats stats = RunServeSession(
      argc == 2 ? static_cast<std::istream&>(file) : std::cin, &service,
      hopts.format);
  return stats.errors == 0 ? 0 : 1;
}

}  // namespace tetris::cli
