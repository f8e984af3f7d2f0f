// Project-wide name tables for the whole-project analyzers, merged once from
// every file's declarations (s3lint/decl_walker.h). Each pass keeps its own
// lookup rule over them: s3lockcheck resolves locks and receivers in tiers,
// s3viewcheck summarizes only names defined exactly once. Lock tables stay in
// s3lockcheck's graph and view summaries in s3viewcheck's.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "s3lint/decl_walker.h"

namespace s3lint {

// files[file].functions[index] in the pass's own file models.
struct FunctionRef {
  std::size_t file = 0;
  std::size_t index = 0;
};

class ProjectIndex {
 public:
  // A function node: every definition is its own node. A qualified name
  // with no definition anywhere (pure virtuals, externally defined methods)
  // becomes one node built from its first declaration. Either way the
  // node's other declarations of that name are listed in `decls`, so a pass
  // can merge their annotations.
  struct Node {
    FunctionRef primary;
    std::vector<FunctionRef> decls;
  };

  // `FileModel` is a pass's per-file model: a FileDecls with a `functions`
  // vector of FunctionHeader-derived models.
  template <typename FileModel>
  explicit ProjectIndex(const std::vector<FileModel>& files) {
    std::vector<Entry> entries;
    for (std::size_t f = 0; f < files.size(); ++f) {
      add_decls(files[f]);
      for (std::size_t k = 0; k < files[f].functions.size(); ++k) {
        entries.push_back({{f, k}, &files[f].functions[k]});
      }
    }
    add_functions(entries);
  }

  // class path -> member -> type, merged across files (the first file to
  // declare a member fixes its type).
  std::map<std::string, std::map<std::string, std::string>> members;
  // Every known class path: classes with data members, plus the owners of
  // functions, so interface-only classes resolve as receiver types too.
  std::set<std::string> classes;
  // Definitions in file order, then declaration-only names in name order.
  std::vector<Node> functions;
  // "Class::name" (or "name" for free functions) -> indices into functions.
  std::map<std::string, std::vector<std::size_t>> by_qualified;
  // Bare name -> indices into functions.
  std::map<std::string, std::vector<std::size_t>> by_name;
  // Bare names with exactly one definition project-wide -> that definition.
  std::map<std::string, FunctionRef> defined_once;

  // The merged type of `cls::member`, or nullptr when either is unknown.
  const std::string* member_type(const std::string& cls,
                                 const std::string& member) const;

 private:
  struct Entry {
    FunctionRef ref;
    const FunctionHeader* fn = nullptr;
  };

  void add_decls(const FileDecls& decls);
  void add_functions(const std::vector<Entry>& entries);
};

}  // namespace s3lint
