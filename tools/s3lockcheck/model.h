// Per-file model for s3lockcheck: the shared declarations (annotated
// mutexes, class member types, function headers — read by the declaration
// walker in tools/s3lint/decl_walker.h) plus, for every function with a
// body, where locks are acquired, what calls are made while they are held,
// and where blocking operations occur.
//
// The body visitor is token-level, not a real C++ parse: it understands just
// enough (lambdas, RAII guard declarations, local declarations) to place
// every lock site in a lexical guard scope. Precision notes:
//  * Lock identity is name-based ("Class::member"), so two instances of the
//    same member (two shuffle buckets) are one node — which is exactly the
//    granularity a rank hierarchy needs.
//  * Lambda bodies start with an empty held-set (a deferred task does not
//    run under the locks its creator held at the submit site), and their
//    sites are flagged `in_lambda` so the graph layer can keep deferred
//    acquisitions out of the enclosing function's transitive summary —
//    worker-task bodies run on pool threads, not under the caller's locks.
#pragma once

#include <string>
#include <vector>

#include "s3lint/decl_walker.h"
#include "s3lint/lexer.h"

namespace s3lockcheck {

using s3lint::MutexDecl;
using s3lint::Param;

// One RAII guard declaration (MutexLock / WriterMutexLock / ReaderMutexLock
// or a std::lock_guard-family template).
struct AcquireSite {
  std::string var;                 // guard variable name
  std::vector<std::string> expr;   // identifier chain of the lock expression
  bool shared = false;             // reader acquisition
  bool in_lambda = false;          // inside a deferred lambda body
  int line = 0;
  std::vector<int> held;  // indices (into FunctionModel::acquires) of guards
                          // lexically active when this one is declared
};

// A call (or blocking primitive) site inside a function body.
struct CallSite {
  std::string callee;               // identifier directly before '('
  std::vector<std::string> chain;   // receiver-chain identifiers, in order
  bool in_lambda = false;           // inside a deferred lambda body
  int line = 0;
  std::vector<int> held;            // active guard indices at the call
  // For wait/wait_for/wait_until whose receiver is a live guard variable:
  // the acquire-site index of that guard (its own lock is exempt from the
  // blocking-under-lock rule). -1 otherwise.
  int wait_guard = -1;
};

struct LocalDecl {
  std::string type;
  std::string name;
};

struct FunctionModel : s3lint::FunctionHeader {
  std::vector<AcquireSite> acquires;
  std::vector<CallSite> calls;
  std::vector<LocalDecl> locals;
};

struct FileModel : s3lint::FileDecls {
  std::vector<FunctionModel> functions;
};

FileModel extract_model(const std::string& path,
                        const s3lint::TokenizedFile& file);

}  // namespace s3lockcheck
