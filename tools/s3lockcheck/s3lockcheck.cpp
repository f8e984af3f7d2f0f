#include "s3lockcheck/s3lockcheck.h"

#include "s3lockcheck/graph.h"
#include "s3lockcheck/model.h"

namespace s3lockcheck {

const s3lint::AnalyzerPass& lockcheck_pass() {
  static const s3lint::AnalyzerPass kPass{
      "s3lockcheck",
      "Whole-project lock-order and blocking-under-lock analysis.",
      "dump the merged lock-acquisition graph and exit",
      {"lock-cycle", "rank-order", "unranked-mutex", "blocking-under-lock"},
      s3lint::analyze_with<ProjectGraph>(extract_model)};
  return kPass;
}

int run_lockcheck(const LockcheckOptions& options, std::string* output) {
  return s3lint::run_analyzer(lockcheck_pass(), options, output);
}

}  // namespace s3lockcheck
