# Attaches bench/e2e_ledger to a build of the repository root without
# editing any CMakeLists.txt outside this directory. run.sh configures the
# root with -DCMAKE_PROJECT_INCLUDE=<this file>; CMake includes it right after
# the root project() call, and the deferred include() runs once the root
# CMakeLists.txt has finished, so the root's settings and every s3_* target
# exist. (CMake forbids add_subdirectory() in deferred calls.)
include_guard(GLOBAL)
# Deferred arguments are expanded when the call runs, so the path is kept in
# a variable of the root scope rather than read from CMAKE_CURRENT_LIST_DIR.
set(E2E_LEDGER_LIST ${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt)
cmake_language(DEFER CALL include ${E2E_LEDGER_LIST})
