// Per-file model for s3viewcheck: the shared declarations (class member
// types and function headers — read by the declaration walker in
// tools/s3lint/decl_walker.h) plus, for every function with a body, where
// arena-backed views are born (KVBatch::key/value calls bound to locals,
// string_view parameters at the emit/reduce boundary, wrapper calls resolved
// through project summaries), where arenas are invalidated
// (append/clear/prefault receivers, std::move'd batches, reassignments), and
// where views escape (returns, stores into members, uses inside lambdas that
// are submitted to a worker pool).
//
// The body visitor is token-level, not a real C++ parse: it understands just
// enough (statement boundaries, local declarations, assignments, returns,
// lambdas) to order every event lexically. Precision notes:
//  * Only *named* view locals are tracked (`auto k = batch.key(i)`); a view
//    consumed in place (`fn(batch.key(i))`) cannot dangle and generates no
//    events, which keeps the false-positive rate of a gating check near
//    zero.
//  * The walker records syntax; type resolution (is this receiver a
//    KVBatch?) happens in the graph layer, over the project index's merged
//    class-member table. Events carry raw identifier chains for that reason.
//  * Loop back-edges are not modeled: a bind-use-append loop reads as
//    bind < use < append lexically. DebugView (the runtime half,
//    common/view_checks.h) catches that shape instead.
#pragma once

#include <string>
#include <vector>

#include "s3lint/decl_walker.h"
#include "s3lint/lexer.h"

namespace s3viewcheck {

using s3lint::Param;

enum class EventKind {
  kBind,         // view born: walker-level only for borrowed view params
  kUse,          // a candidate view identifier is read
  kAssign,       // a known local is assigned over (untrack view / kill arena)
  kReturn,       // return statement referencing a candidate view
  kMemberStore,  // candidate view (or direct key/value call) stored into a
                 // name that is not a local — the graph checks memberhood
};

struct Event {
  EventKind kind = EventKind::kUse;
  int line = 0;
  int seq = 0;     // lexical order shared with CallSite::seq
  int stmt = 0;    // statement ordinal (binds ignore uses in their own stmt)
  int lambda = -1; // id of the innermost enclosing lambda body, -1 = none
  std::string view;   // view variable involved
  std::string batch;  // kBind: pseudo-arena identity ("<param:key>")
  std::string via;    // detail: kMemberStore target name, kAssign RHS hint
};

// A call site. The graph layer turns these into binds (key/value or a
// summary-resolved wrapper bound to a declared local), invalidations
// (append/clear/prefault receivers, std::move arguments, callees that
// invalidate a by-reference batch parameter), and submit associations.
struct CallSite {
  std::string callee;              // identifier directly before '('
  std::vector<std::string> chain;  // receiver-chain identifiers, in order
  int line = 0;
  int seq = 0;
  int stmt = 0;
  int lambda = -1;
  // One entry per top-level argument: the first meaningful identifier (the
  // std::move operand when the argument is std::move(x)), or "".
  std::vector<std::string> args;
  std::vector<bool> moved;  // argument is wrapped in std::move
  std::vector<bool> lone;   // argument is exactly one bare identifier
  // Local variable whose declaration this call initializes ("" when the
  // call is not part of a declaration's initializer; "<return>" when it
  // appears in a return expression).
  std::string bound_to;
  std::string bound_type;  // declared type of that local ("auto", ...)
};

struct LambdaInfo {
  int id = 0;
  int line = 0;
  // Lexically an argument of a submit(...)/submit_to(...) call: the body
  // runs on a pool thread, after the submitting scope may have moved on.
  bool submitted = false;
};

struct LocalDecl {
  std::string type;
  std::string name;
  int stmt = 0;
};

struct FunctionModel : s3lint::FunctionHeader {
  std::vector<LocalDecl> locals;
  std::vector<Event> events;
  std::vector<CallSite> calls;
  std::vector<LambdaInfo> lambdas;
};

// Member types see through templates, so `std::vector<KVBatch> buffers_`
// records KVBatch: element access through the member is arena access.
struct FileModel : s3lint::FileDecls {
  std::vector<FunctionModel> functions;
};

FileModel extract_model(const std::string& path,
                        const s3lint::TokenizedFile& file);

}  // namespace s3viewcheck
