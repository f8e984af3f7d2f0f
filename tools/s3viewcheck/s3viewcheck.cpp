#include "s3viewcheck/s3viewcheck.h"

#include "s3viewcheck/graph.h"
#include "s3viewcheck/model.h"

namespace s3viewcheck {

const s3lint::AnalyzerPass& viewcheck_pass() {
  static const s3lint::AnalyzerPass kPass{
      "s3viewcheck",
      "Whole-project arena/view lifetime and escape analysis.",
      "dump the merged view/arena model and exit",
      {"dangling-view", "append-after-read", "view-outlives-arena",
       "cross-thread-view"},
      s3lint::analyze_with<ProjectGraph>(extract_model)};
  return kPass;
}

int run_viewcheck(const ViewcheckOptions& options, std::string* output) {
  return s3lint::run_analyzer(viewcheck_pass(), options, output);
}

}  // namespace s3viewcheck
