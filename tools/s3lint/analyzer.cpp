#include "s3lint/analyzer.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>

#include "s3lint/s3lint.h"

namespace s3lint {
namespace {

void usage(const AnalyzerPass& pass) {
  std::fprintf(stderr,
               "usage: %s [--root=DIR] [--rules=a,b] [--graph]\n"
               "\n"
               "%s\n"
               "  --root=DIR    project root containing src/ (default: .)\n"
               "  --rules=a,b   run only the named rules\n"
               "  --graph       %s\n"
               "\n"
               "rules:\n",
               pass.tool.c_str(), pass.summary.c_str(),
               pass.graph_help.c_str());
  for (const std::string& rule : pass.rules) {
    std::fprintf(stderr, "  %s\n", rule.c_str());
  }
}

}  // namespace

bool operator<(const Finding& a, const Finding& b) {
  return std::tie(a.file, a.line, a.rule, a.message) <
         std::tie(b.file, b.line, b.rule, b.message);
}

int run_analyzer(const AnalyzerPass& pass, const AnalyzerOptions& options,
                 std::string* output) {
  namespace fs = std::filesystem;
  std::ostringstream out;
  const fs::path base(options.root);
  if (!fs::exists(base / "src")) {
    out << pass.tool << ": no src/ under " << options.root << "\n";
    *output = out.str();
    return 2;
  }

  std::vector<SourceFile> files;
  std::map<std::string, Suppressions> suppressions;
  for (const std::string& rel : collect_files(options.root, {"src"})) {
    std::ifstream in(base / rel, std::ios::binary);
    if (!in) {
      out << pass.tool << ": cannot read " << rel << "\n";
      *output = out.str();
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    files.push_back({rel, tokenize(buf.str())});
    suppressions.emplace(rel, Suppressions::parse(files.back().tokens.comments,
                                                  pass.tool + ":"));
  }

  if (options.dump_graph) {
    pass.analyze(files, options.rules, &out);
    *output = out.str();
    return 0;
  }

  std::set<std::string> rules = options.rules;
  if (rules.empty()) rules.insert(pass.rules.begin(), pass.rules.end());
  const std::vector<Finding> found = pass.analyze(files, rules, nullptr);
  int reported = 0;
  // The set sorts the findings and drops exact duplicates.
  for (const Finding& f : std::set<Finding>(found.begin(), found.end())) {
    const auto it = suppressions.find(f.file);
    if (it != suppressions.end() && it->second.suppressed(f.rule, f.line)) {
      continue;
    }
    out << f.file << ":" << f.line << ": error: [" << f.rule << "] "
        << f.message << "\n";
    ++reported;
  }
  if (reported > 0) {
    out << pass.tool << ": " << reported << " finding"
        << (reported == 1 ? "" : "s") << " in " << files.size() << " files\n";
  }
  *output = out.str();
  return reported > 0 ? 1 : 0;
}

int analyzer_main(const AnalyzerPass& pass, int argc, char** argv) {
  AnalyzerOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--root=", 0) == 0) {
      options.root = arg.substr(7);
    } else if (arg.rfind("--rules=", 0) == 0) {
      for (const std::string& rule : split_csv(arg.substr(8))) {
        options.rules.insert(rule);
      }
    } else if (arg == "--graph") {
      options.dump_graph = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(pass);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown argument '%s'\n", pass.tool.c_str(),
                   arg.c_str());
      usage(pass);
      return 2;
    }
  }
  std::string output;
  const int rc = run_analyzer(pass, options, &output);
  std::fputs(output.c_str(), stdout);
  return rc;
}

}  // namespace s3lint
