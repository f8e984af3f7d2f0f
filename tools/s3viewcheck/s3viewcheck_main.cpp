// Command-line entry point for s3viewcheck.
//
//   s3viewcheck [--root=DIR] [--rules=a,b] [--graph]
//
// Analyzes every C++ file under DIR/src for arena-backed view lifetime
// hazards: views read after the backing KVBatch arena was cleared, moved,
// prefaulted, or grown by append; views escaping their arena's scope through
// returns or member stores; and views captured by tasks submitted to worker
// pools. Exit 0 = clean, 1 = findings, 2 = usage or I/O error.
#include "s3lint/analyzer.h"
#include "s3viewcheck/s3viewcheck.h"

int main(int argc, char** argv) {
  return s3lint::analyzer_main(s3viewcheck::viewcheck_pass(), argc, argv);
}
