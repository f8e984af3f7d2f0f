// Shared front end of the whole-project analyzers (tools/s3lockcheck,
// tools/s3viewcheck): the token helpers and the declaration walker that reads
// each file's namespaces, classes, enums, data members and function headers
// once, on s3lint's token stream. Token-level, not a real C++ parse.
//
// An analyzer is a pass over this front end. It derives from DeclWalker,
// overrides on_function() with its own function-body visitor (lock guard
// scopes for s3lockcheck; statements, view binds and lambdas for
// s3viewcheck), and runs its own rules over the ProjectIndex
// (s3lint/project_index.h) merged from the per-file models. The shared driver
// (s3lint/analyzer.h) finds the files and prints the findings.
//
// What the walker records, identically for every pass:
//  * data members per class path, typed by the last class-ish identifier
//    seen through template arguments, so `std::vector<std::unique_ptr<Queue>>
//    q_` records Queue (what receiver resolution wants);
//  * function headers: qualified name, parameters (typed the same way:
//    `const std::vector<KVBatch>& runs` records KVBatch), return type, and
//    the S3_REQUIRES / S3_EXCLUDES arguments;
//  * AnnotatedMutex / AnnotatedSharedMutex members with their LockRank, and
//    the values of the LockRank enum.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "s3lint/lexer.h"

namespace s3lint {

// --- Token helpers. ---------------------------------------------------------

bool is_ident(const Token& t);
bool is_punct(const Token& t, const char* text);

// Macro invocations look like ALL_CAPS identifiers; they never name a method,
// a lock or a view, and their argument lists are opaque.
bool is_macro_name(const std::string& s);

// Type-position keywords to skip when hunting for the class-ish identifier
// of a declared type.
bool is_decl_qualifier(const std::string& s);

// Skips a balanced (), [], or {} group starting at `i` (which must point at
// the opener). Returns the index one past the closer, or toks.size().
std::size_t skip_balanced(const std::vector<Token>& toks, std::size_t i);

// Skips a template argument list starting at the `<`. Heuristic: `>` closes
// one level, `>>` closes two; gives up (returns start+1) if the list doesn't
// close within the statement.
std::size_t skip_angles(const std::vector<Token>& toks, std::size_t i);

// --- What the walker records. -----------------------------------------------

struct Param {
  std::string type;  // last class-ish identifier of the declared type
  std::string name;
};

struct MutexDecl {
  std::string id;          // "LocalEngine::WaveCtx::mu"
  std::string class_name;  // "LocalEngine::WaveCtx"
  std::string member;      // "mu"
  bool shared = false;     // AnnotatedSharedMutex
  std::string rank;        // "kEngineWaveCtx"; empty = unranked
  std::string file;
  int line = 0;
};

// One function declaration or definition. Each pass's function model derives
// from this and adds what its body visitor finds.
struct FunctionHeader {
  std::string class_name;  // "" for free functions
  std::string name;
  std::string display;     // "Class::name" or "name" (diagnostics)
  std::string file;
  int line = 0;
  bool has_body = false;
  std::string return_type;  // last class-ish identifier of the return type
  std::vector<Param> params;
  // Raw identifier arguments of S3_REQUIRES(...) / S3_EXCLUDES(...) on the
  // declaration or definition. EXCLUDES names locks the function acquires
  // itself; REQUIRES names locks the caller already holds.
  std::vector<std::string> requires_args;
  std::vector<std::string> excludes_args;
};

// One file's declarations. Each pass's file model derives from this and adds
// its function models.
struct FileDecls {
  std::string path;
  std::vector<MutexDecl> mutexes;
  // class path -> member name -> member type (last class-ish identifier).
  std::map<std::string, std::map<std::string, std::string>> members;
  // LockRank enumerator -> numeric value, when this file defines the enum.
  std::map<std::string, int> rank_values;
};

// Where a lambda's parts sit in the token stream (DeclWalker::lambda_at).
struct LambdaShape {
  std::size_t params_open = 0;   // `(` of the parameter list; 0 = none
  std::size_t params_close = 0;  // one past the matching `)`
  std::size_t body_begin = 0;    // past the body's `{`
  std::size_t body_end = 0;      // its closing `}`, clipped to the walk
  std::size_t next = 0;          // where the enclosing walk resumes
};

// `struct S { ... } s;` inside a function body declares the local `s`.
struct LocalInstance {
  std::string type;  // class path of the local struct
  std::string name;  // "" when the definition declares no variable
};

class DeclWalker {
 public:
  DeclWalker(const std::string& path, const std::vector<Token>& toks);
  virtual ~DeclWalker() = default;

 protected:
  // Walks the whole file, recording declarations into `decls` and handing
  // every function header to on_function().
  void walk(FileDecls* decls);

  // The pass's function-body visitor, called for every function declaration
  // and definition in file order. For a definition the body is
  // [body_begin, body_end), body_end being its closing `}`; a declaration
  // has body_begin == body_end. Member functions of a function-local struct
  // arrive from inside the visitor's own parse_class() call.
  virtual void on_function(FunctionHeader header, std::size_t body_begin,
                           std::size_t body_end) = 0;

  // Parses a class/struct definition starting at the class/struct keyword
  // and walks its members. Returns the index past the definition's `;`, or
  // `i` unchanged when this is not a definition (forward declaration,
  // elaborated type). Inside a function body, pass `instance` to learn the
  // variable a `} var;` declarator names.
  std::size_t parse_class(std::size_t i, std::size_t end,
                          const std::string& outer, LocalInstance* instance);

  // Index of the `}` matching the `{` that precedes `body_begin`.
  std::size_t find_close(std::size_t body_begin) const;

  // Builds the receiver identifier chain for the call whose callee token is
  // at `pos`, walking backwards over `.`, `->`, `::`, subscripts, and
  // intermediate calls. `begin` bounds the walk.
  void build_chain(std::size_t pos, std::size_t begin,
                   std::vector<std::string>* chain) const;

  // The lambda whose introducer is the `[` at `i` inside a walk that stops
  // at `end`, or nullopt when that `[` is a subscript or no body opens
  // before `end`.
  std::optional<LambdaShape> lambda_at(std::size_t i, std::size_t end) const;

  const std::vector<Token>& toks_;

 private:
  void walk_outer(std::size_t begin, std::size_t end,
                  const std::string& class_path);
  std::size_t parse_enum(std::size_t i, std::size_t end);
  std::size_t parse_declaration(std::size_t i, std::size_t end,
                                const std::string& class_path);
  void parse_member(std::size_t i, std::size_t stmt_end,
                    const std::string& class_path);

  const std::string& path_;
  FileDecls* decls_ = nullptr;
};

}  // namespace s3lint
