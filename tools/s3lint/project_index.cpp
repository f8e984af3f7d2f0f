#include "s3lint/project_index.h"

namespace s3lint {

void ProjectIndex::add_decls(const FileDecls& decls) {
  for (const auto& [cls, table] : decls.members) {
    classes.insert(cls);
    for (const auto& [name, type] : table) members[cls].emplace(name, type);
  }
  for (const MutexDecl& m : decls.mutexes) {
    if (!m.class_name.empty()) classes.insert(m.class_name);
  }
}

const std::string* ProjectIndex::member_type(const std::string& cls,
                                             const std::string& member) const {
  const auto cit = members.find(cls);
  if (cit == members.end()) return nullptr;
  const auto mit = cit->second.find(member);
  return mit == cit->second.end() ? nullptr : &mit->second;
}

void ProjectIndex::add_functions(const std::vector<Entry>& entries) {
  auto add_node = [&](const FunctionHeader& fn, Node node) {
    by_qualified[fn.display].push_back(functions.size());
    by_name[fn.name].push_back(functions.size());
    functions.push_back(std::move(node));
  };
  std::map<std::string, int> definitions;  // bare name -> count
  std::map<std::string, std::vector<const Entry*>> decl_only;  // by qualified
  for (const Entry& e : entries) {
    if (!e.fn->class_name.empty()) classes.insert(e.fn->class_name);
    if (!e.fn->has_body) {
      decl_only[e.fn->display].push_back(&e);
      continue;
    }
    add_node(*e.fn, Node{e.ref, {}});
    ++definitions[e.fn->name];
    defined_once[e.fn->name] = e.ref;
  }
  for (const auto& [name, count] : definitions) {
    if (count > 1) defined_once.erase(name);
  }
  for (const auto& [qualified, decls] : decl_only) {
    std::vector<FunctionRef> refs;
    for (const Entry* d : decls) refs.push_back(d->ref);
    const auto it = by_qualified.find(qualified);
    if (it != by_qualified.end()) {
      for (const std::size_t idx : it->second) functions[idx].decls = refs;
      continue;
    }
    add_node(*decls.front()->fn,
             Node{refs.front(),
                  std::vector<FunctionRef>(refs.begin() + 1, refs.end())});
  }
}

}  // namespace s3lint
