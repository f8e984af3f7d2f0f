// Shared driver of the whole-project analyzers (s3lockcheck, s3viewcheck).
// Collects every C++ source under <root>/src, tokenizes it, hands the files
// to the pass, drops findings silenced by the pass's own suppression tag
// (`// s3lockcheck: disable(rule)`), and reports the rest sorted, in the
// same `path:line: error: [rule] message` format as s3lint (one tool-chain,
// one grep pattern). Exit codes match too: 0 clean, 1 findings, 2 usage/IO.
//
// Only src/ is analyzed: tests and benchmarks deliberately build the
// pathological lock and view shapes (death tests, contention fixtures,
// stale-view regressions) that the production tree must never contain.
#pragma once

#include <functional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "s3lint/lexer.h"

namespace s3lint {

struct Finding {
  std::string rule;
  std::string file;
  int line = 0;
  std::string message;
};

// Report order: file, line, rule, then message.
bool operator<(const Finding& a, const Finding& b);

struct AnalyzerOptions {
  std::string root = ".";       // project root (containing src/)
  std::set<std::string> rules;  // empty = all rules
  bool dump_graph = false;      // print the merged graph instead of checking
};

struct SourceFile {
  std::string path;  // root-relative, forward slashes
  TokenizedFile tokens;
};

// One whole-project pass, as the driver runs it.
struct AnalyzerPass {
  std::string tool;                // "s3lockcheck": messages, suppression tag
  std::string summary;             // what the pass checks (usage text)
  std::string graph_help;          // what --graph prints (usage text)
  std::vector<std::string> rules;  // every rule the pass knows
  // Builds the pass's project graph over `files`. With `dump` set, writes
  // the --graph dump there; otherwise returns the findings of `rules`, in
  // any order.
  std::function<std::vector<Finding>(const std::vector<SourceFile>& files,
                                     const std::set<std::string>& rules,
                                     std::ostream* dump)>
      analyze;
};

// AnalyzerPass::analyze for a pass whose per-file model comes from `extract`
// and whose `Graph` is built over all of them, with
// `void dump(std::ostream&) const` and
// `std::vector<Finding> analyze(const std::set<std::string>&) const`.
template <typename Graph, typename FileModel>
auto analyze_with(FileModel (*extract)(const std::string&,
                                       const TokenizedFile&)) {
  return [extract](const std::vector<SourceFile>& files,
                   const std::set<std::string>& rules, std::ostream* dump) {
    std::vector<FileModel> models;
    for (const SourceFile& f : files) {
      models.push_back(extract(f.path, f.tokens));
    }
    const Graph graph(std::move(models));
    if (dump != nullptr) {
      graph.dump(*dump);
      return std::vector<Finding>();
    }
    return graph.analyze(rules);
  };
}

// Runs `pass` over options.root and writes the report to `output`. An empty
// options.rules runs every rule of the pass.
int run_analyzer(const AnalyzerPass& pass, const AnalyzerOptions& options,
                 std::string* output);

// Command-line entry point: `<tool> [--root=DIR] [--rules=a,b] [--graph]`.
int analyzer_main(const AnalyzerPass& pass, int argc, char** argv);

}  // namespace s3lint
