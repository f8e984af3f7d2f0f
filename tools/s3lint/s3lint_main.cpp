// s3lint — project-specific static analysis for the S3 scheduler tree.
//
//   s3lint [--root=DIR] [--rules=a,b,c] [--list-rules] [paths...]
//
// With no paths, lints every C++ source under src/ tests/ tools/ bench/
// examples/. Exits 0 when clean, 1 when violations were found, 2 on usage
// or I/O errors.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "s3lint/rules.h"
#include "s3lint/s3lint.h"

namespace {

void print_usage() {
  std::cout << "usage: s3lint [--root=DIR] [--rules=a,b,c] [--list-rules] "
               "[paths...]\n"
               "  --root=DIR    repo root the path allowlists are relative "
               "to (default: .)\n"
               "  --rules=LIST  comma-separated subset of rules to run\n"
               "  --list-rules  print the rule names and exit\n"
               "  paths         files to lint, relative to the root "
               "(default: whole tree)\n";
}

}  // namespace

int main(int argc, char** argv) {
  s3lint::LintOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    }
    if (arg == "--list-rules") {
      for (const std::string& rule : s3lint::all_rules()) {
        std::cout << rule << "\n";
      }
      return 0;
    }
    if (arg.rfind("--root=", 0) == 0) {
      options.root = arg.substr(7);
      continue;
    }
    if (arg.rfind("--rules=", 0) == 0) {
      options.rules = s3lint::split_csv(arg.substr(8));
      for (const std::string& rule : options.rules) {
        const auto& known = s3lint::all_rules();
        if (std::find(known.begin(), known.end(), rule) == known.end()) {
          std::cerr << "s3lint: unknown rule '" << rule << "'\n";
          return 2;
        }
      }
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::cerr << "s3lint: unknown option '" << arg << "'\n";
      print_usage();
      return 2;
    }
    options.paths.push_back(arg);
  }

  try {
    const s3lint::LintResult result = s3lint::run_lint(options);
    for (const s3lint::LintReport& report : result.reports) {
      std::cout << s3lint::format_report(report) << "\n";
    }
    if (!result.reports.empty()) {
      std::cout << "s3lint: " << result.reports.size() << " violation"
                << (result.reports.size() == 1 ? "" : "s") << " in "
                << result.files_linted << " file"
                << (result.files_linted == 1 ? "" : "s") << "\n";
      return 1;
    }
    std::cout << "s3lint: clean (" << result.files_linted << " files)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }
}
