// Entry points of the whole-project arena/view lifetime analyzer. The shared
// driver (tools/s3lint/analyzer.h) collects every C++ source under <root>/src
// and reports; this pass extracts the per-file view models and builds the
// merged project view graph over them.
#pragma once

#include <string>

#include "s3lint/analyzer.h"

namespace s3viewcheck {

using ViewcheckOptions = s3lint::AnalyzerOptions;

// The view-lifetime pass, as the shared driver runs it.
const s3lint::AnalyzerPass& viewcheck_pass();

int run_viewcheck(const ViewcheckOptions& options, std::string* output);

}  // namespace s3viewcheck
