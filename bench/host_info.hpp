#pragma once
// Provenance block for the standalone benches' JSON: the machine and build
// a BENCH_*.json came from, so numbers from different hosts are never
// compared as like for like. Needs AT_BUILD_TYPE and AT_SOURCE_ROOT, which
// bench/CMakeLists.txt defines for every bench that includes this header.

#include <cctype>
#include <cstdio>
#include <string>
#include <thread>

namespace at::bench {

inline std::string compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// `git describe --always --dirty` of the source tree, or "unknown".
inline std::string git_revision() {
  std::string revision;
  if (FILE* pipe = popen("git -C \"" AT_SOURCE_ROOT "\" describe --always --dirty 2>/dev/null",
                         "r")) {
    char buffer[128];
    while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) revision += buffer;
    pclose(pipe);
  }
  while (!revision.empty() && std::isspace(static_cast<unsigned char>(revision.back()))) {
    revision.pop_back();
  }
  return revision.empty() ? "unknown" : revision;
}

/// `{"nproc": ..., "compiler": ..., "build_type": ..., "git_sha": ...}`.
inline std::string host_json() {
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" + compiler() + "\", \"build_type\": \"" AT_BUILD_TYPE
         "\", \"git_sha\": \"" + git_revision() + "\"}";
}

}  // namespace at::bench
