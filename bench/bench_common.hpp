// Shared helper for the bench binaries: the banner a bench prints above its
// table. The paper's claims themselves are asserted by tests/test_claims.cpp
// (`ctest -L claims -V` prints the measured values).
#pragma once

#include <cstdio>
#include <string>

namespace wsf::bench {

inline void print_header(const std::string& id, const std::string& claim) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", id.c_str());
  std::printf("Claim: %s\n", claim.c_str());
  std::printf("==============================================================\n");
}

}  // namespace wsf::bench
