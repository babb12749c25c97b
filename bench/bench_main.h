// Replacement for BENCHMARK_MAIN() that records how THIS binary was
// compiled. google-benchmark's own "library_build_type" context key
// reflects how the (system-installed) benchmark library was built — on
// this image that is "debug" even when the bench binary is a Release
// build, which used to leak into the committed BENCH_*.json files.
// "daric_build_type" is derived from the translation unit's NDEBUG, so it
// tracks the actual optimization state of the measured code.
// "verify_pool_workers" is the number of threads verify_batch fans out to
// besides the caller, so a reader can check that threads never outnumber
// the recorded cores.
#pragma once

#include <benchmark/benchmark.h>

#include <string>

#include "src/crypto/sig_scheme.h"

#ifdef NDEBUG
#define DARIC_BUILD_TYPE "release"
#else
#define DARIC_BUILD_TYPE "debug"
#endif

#define DARIC_BENCHMARK_MAIN()                                        \
  int main(int argc, char** argv) {                                   \
    benchmark::AddCustomContext("daric_build_type", DARIC_BUILD_TYPE); \
    benchmark::AddCustomContext(                                      \
        "verify_pool_workers",                                        \
        std::to_string(daric::crypto::verify_pool_workers()));        \
    benchmark::Initialize(&argc, argv);                               \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    benchmark::RunSpecifiedBenchmarks();                              \
    benchmark::Shutdown();                                            \
    return 0;                                                         \
  }                                                                   \
  int main(int, char**)
