// csv_join — evaluate a natural join over CSV files from the command line.
//
//   csv_join [--engine=<name>|--engines=<list>] SPEC [SPEC...]
//     SPEC: path.csv:Attr1,Attr2,...   (one relation per file; columns of
//           unsigned integers, one tuple per line, ',' separated)
//
// Attributes with equal names across files are join attributes. Every
// engine behind the JoinEngine facade is available; with several engines
// selected the demo prints a comparison table instead of the tuples.
// With no SPECs, runs a built-in demo (writes two temp CSVs and joins
// them).

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "engine/cli.h"

using namespace tetris;

namespace {

bool ParseSpec(const std::string& spec, std::string* path,
               std::vector<std::string>* attrs) {
  size_t colon = spec.rfind(':');
  if (colon == std::string::npos) return false;
  *path = spec.substr(0, colon);
  std::stringstream ss(spec.substr(colon + 1));
  std::string a;
  attrs->clear();
  while (std::getline(ss, a, ',')) {
    if (!a.empty()) attrs->push_back(a);
  }
  return !attrs->empty();
}

bool LoadCsv(const std::string& path, const std::vector<std::string>& attrs,
             Relation* out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::stringstream ss(line);
    std::string cell;
    Tuple t;
    while (std::getline(ss, cell, ',')) {
      t.push_back(std::strtoull(cell.c_str(), nullptr, 10));
    }
    if (t.size() != attrs.size()) {
      std::fprintf(stderr, "%s:%zu: expected %zu columns, got %zu\n",
                   path.c_str(), lineno, attrs.size(), t.size());
      return false;
    }
    out->Add(std::move(t));
  }
  out->Canonicalize();
  return true;
}

void WriteDemoFiles() {
  std::ofstream r("/tmp/csv_join_follows.csv");
  r << "# follower,followee\n0,1\n1,2\n2,0\n3,1\n1,3\n3,0\n0,3\n";
  std::ofstream s("/tmp/csv_join_likes.csv");
  s << "# user,item\n0,7\n1,7\n2,9\n3,7\n";
}

}  // namespace

int main(int argc, char** argv) {
  cli::HarnessOptions opts;
  opts.engines = {EngineKind::kTetrisReloaded};
  if (auto exit_code =
          cli::HandleStartup(&argc, argv, &opts,
                             "csv_join [flags] SPEC [SPEC...]\n"
                             "  SPEC: path.csv:Attr1,Attr2,...")) {
    return *exit_code;
  }
  std::vector<std::string> specs(argv + 1, argv + argc);
  if (specs.empty()) {
    std::printf("no SPECs given; running the built-in demo\n");
    WriteDemoFiles();
    specs = {"/tmp/csv_join_follows.csv:U,V",
             "/tmp/csv_join_likes.csv:V,Item"};
  }

  std::vector<std::unique_ptr<Relation>> rels;
  std::vector<const Relation*> ptrs;
  for (const std::string& spec : specs) {
    std::string path;
    std::vector<std::string> attrs;
    if (!ParseSpec(spec, &path, &attrs)) {
      std::fprintf(stderr, "bad SPEC '%s' (want path.csv:A,B,...)\n",
                   spec.c_str());
      return 2;
    }
    auto rel = std::make_unique<Relation>(path, attrs);
    if (!LoadCsv(path, attrs, rel.get())) return 1;
    std::printf("loaded %-32s %6zu tuples (%zu cols)\n", path.c_str(),
                rel->size(), attrs.size());
    ptrs.push_back(rel.get());
    rels.push_back(std::move(rel));
  }

  JoinQuery q = JoinQuery::Build(ptrs);
  std::printf("\njoin over attributes:");
  for (const auto& a : q.attrs()) std::printf(" %s", a.c_str());
  std::printf("\n");

  if (opts.engines.size() > 1 ||
      opts.format != cli::OutputFormat::kTable) {
    cli::RunReporter rep(opts.format, "csv_join");
    rep.Section("csv join, all selected engines");
    for (const cli::EngineRun& run : cli::RunEngines(q, opts)) {
      rep.Row("csv", {{"atoms", static_cast<double>(ptrs.size())}}, run.kind,
              run.result);
    }
    return rep.AllAgreed() ? 0 : 1;
  }

  // Single engine, human format: print the tuples themselves (--reps
  // is honored through RunEngines).
  cli::EngineRun single = cli::RunEngines(q, opts)[0];
  EngineResult& res = single.result;
  if (!res.ok) {
    std::fprintf(stderr, "error: %s\n", res.error.c_str());
    return 1;
  }
  std::printf("\nengine: %s\n", EngineKindName(res.stats.engine));
  std::printf("%zu output tuples", res.tuples.size());
  size_t shown = 0;
  for (const Tuple& t : res.tuples) {
    if (shown++ == 20) {
      std::printf("\n  ... (%zu more)", res.tuples.size() - 20);
      break;
    }
    std::printf("\n  ");
    for (size_t i = 0; i < t.size(); ++i) {
      std::printf("%s%s=%llu", i ? ", " : "", q.attrs()[i].c_str(),
                  static_cast<unsigned long long>(t[i]));
    }
  }
  std::printf("\n\nresolutions=%lld, boxes loaded=%lld, probes=%lld, "
              "seeks=%lld\nwall=%.3f ms, kb=%zu B, indexes=%zu B, "
              "output=%zu B\n",
              static_cast<long long>(res.stats.tetris.resolutions),
              static_cast<long long>(res.stats.tetris.boxes_loaded),
              static_cast<long long>(res.stats.oracle_probes +
                                     res.stats.probes),
              static_cast<long long>(res.stats.seeks), res.stats.wall_ms,
              res.stats.memory.kb_bytes, res.stats.memory.index_bytes,
              res.stats.memory.output_bytes);
  return 0;
}
