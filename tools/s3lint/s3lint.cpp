#include "s3lint/s3lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "s3lint/decl_index.h"
#include "s3lint/lexer.h"

namespace s3lint {
namespace {

namespace fs = std::filesystem;

bool is_cpp_source(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

std::string slashes(std::string s) {
  std::replace(s.begin(), s.end(), '\\', '/');
  return s;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    throw std::runtime_error("s3lint: cannot read " + p.string());
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

std::vector<std::string> collect_files(const std::string& root,
                                       const std::vector<std::string>& trees) {
  std::vector<std::string> out;
  const fs::path base(root);
  for (const std::string& tree : trees) {
    const fs::path dir = base / tree;
    if (!fs::exists(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file() || !is_cpp_source(entry.path())) continue;
      out.push_back(
          slashes(fs::relative(entry.path(), base).generic_string()));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

LintResult run_lint(const LintOptions& options) {
  const fs::path base(options.root);
  const std::vector<std::string> tree = collect_files(
      options.root, {"src", "tests", "tools", "bench", "examples"});

  // Index every header in the tree, whether or not it is being linted — the
  // status rules need the project-wide view.
  DeclIndex index;
  std::vector<std::pair<std::string, TokenizedFile>> tokenized;
  tokenized.reserve(tree.size());
  for (const std::string& rel : tree) {
    tokenized.emplace_back(rel, tokenize(read_file(base / rel)));
    const std::string ext = fs::path(rel).extension().string();
    if (ext == ".h" || ext == ".hpp") {
      index.index_file(rel, tokenized.back().second);
    }
  }

  // Resolve the lint set: whole tree, or the explicit paths.
  std::vector<std::string> wanted;
  if (options.paths.empty()) {
    wanted = tree;
  } else {
    for (const std::string& p : options.paths) {
      fs::path fp(p);
      if (fp.is_absolute()) {
        fp = fs::relative(fp, fs::absolute(base));
      }
      wanted.push_back(slashes(fp.generic_string()));
    }
  }

  const std::vector<std::string>& rules =
      options.rules.empty() ? all_rules() : options.rules;

  LintResult result;
  for (const std::string& rel : wanted) {
    const TokenizedFile* file = nullptr;
    TokenizedFile local;
    for (const auto& [path, tf] : tokenized) {
      if (path == rel) {
        file = &tf;
        break;
      }
    }
    if (file == nullptr) {
      // A path outside the standard trees (e.g. a fixture): lint it cold.
      local = tokenize(read_file(base / rel));
      file = &local;
    }
    ++result.files_linted;
    for (Violation& v : lint_file(rel, *file, index, rules)) {
      result.reports.push_back(LintReport{rel, std::move(v)});
    }
  }
  std::sort(result.reports.begin(), result.reports.end(),
            [](const LintReport& a, const LintReport& b) {
              if (a.path != b.path) return a.path < b.path;
              if (a.violation.line != b.violation.line) {
                return a.violation.line < b.violation.line;
              }
              return a.violation.rule < b.violation.rule;
            });
  return result;
}

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::string format_report(const LintReport& report) {
  std::ostringstream out;
  out << report.path << ":" << report.violation.line << ": error: ["
      << report.violation.rule << "] " << report.violation.message;
  return out.str();
}

}  // namespace s3lint
