// Driver: file collection, index construction, and report formatting.
#pragma once

#include <string>
#include <vector>

#include "s3lint/rules.h"

namespace s3lint {

struct LintOptions {
  std::string root = ".";           // repo root (allowlists are root-relative)
  std::vector<std::string> paths;   // explicit files; empty = whole tree
  std::vector<std::string> rules;   // enabled rules; empty = all
};

struct LintReport {
  std::string path;  // root-relative
  Violation violation;
};

struct LintResult {
  std::vector<LintReport> reports;
  int files_linted = 0;
};

// C++ sources under root's `trees` (s3lint walks src/, tests/, tools/,
// bench/ and examples/), root-relative with forward slashes, sorted.
std::vector<std::string> collect_files(const std::string& root,
                                       const std::vector<std::string>& trees);

// Tokenizes + indexes every header under root, then lints the requested
// files (or the whole tree). Throws std::runtime_error on unreadable input.
LintResult run_lint(const LintOptions& options);

// The non-empty items of a comma-separated list ("a,,b" -> {"a", "b"}).
std::vector<std::string> split_csv(const std::string& csv);

// "path:line: error: [rule] message"
std::string format_report(const LintReport& report);

}  // namespace s3lint
