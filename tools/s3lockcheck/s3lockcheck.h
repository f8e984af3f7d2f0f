// Entry points of the whole-project lock-order analyzer. The shared driver
// (tools/s3lint/analyzer.h) collects every C++ source under <root>/src and
// reports; this pass extracts the per-file lock models and builds the project
// lock-acquisition graph over them.
#pragma once

#include <string>

#include "s3lint/analyzer.h"

namespace s3lockcheck {

using LockcheckOptions = s3lint::AnalyzerOptions;

// The lock-order pass, as the shared driver runs it.
const s3lint::AnalyzerPass& lockcheck_pass();

int run_lockcheck(const LockcheckOptions& options, std::string* output);

}  // namespace s3lockcheck
