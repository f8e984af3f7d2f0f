// Command-line entry point for s3lockcheck.
//
//   s3lockcheck [--root=DIR] [--rules=a,b] [--graph]
//
// Analyzes every C++ file under DIR/src for lock-order cycles, LockRank
// contradictions, unranked annotated mutexes, and blocking calls made while
// holding a lock. Exit 0 = clean, 1 = findings, 2 = usage or I/O error.
#include "s3lint/analyzer.h"
#include "s3lockcheck/s3lockcheck.h"

int main(int argc, char** argv) {
  return s3lint::analyzer_main(s3lockcheck::lockcheck_pass(), argc, argv);
}
