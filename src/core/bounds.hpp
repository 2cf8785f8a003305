// Closed-form values of the paper's bounds, used by tests/test_claims.cpp
// and bench_steal_scaling for measured/bound ratios. These are the bound
// expressions with the constants dropped; the claim checked is that the
// ratio stays bounded (below 1) across a sweep.
#pragma once

#include <cstdint>

namespace wsf::core {

/// Expected steals of parsimonious work stealing: O(P·T∞)
/// (Arora, Blumofe & Plaxton, SPAA'98 — the baseline Theorem 8 builds on).
double abp_steal_bound(std::uint64_t procs, std::uint64_t span);

/// Theorem 8 / 12 / 16 / 18 deviation bound for structured computations with
/// the future-first policy: O(P·T∞²).
double structured_deviation_bound(std::uint64_t procs, std::uint64_t span);

/// Theorem 8 cache-miss bound: O(C·P·T∞²).
double structured_miss_bound(std::uint64_t cache_lines, std::uint64_t procs,
                             std::uint64_t span);

/// Theorem 10 deviation lower bound for parent-first on structured
/// single-touch computations: Ω(t·T∞).
double parent_first_deviation_bound(std::uint64_t touches,
                                    std::uint64_t span);

/// Theorem 10 cache-miss lower bound: Ω(C·t·T∞).
double parent_first_miss_bound(std::uint64_t cache_lines,
                               std::uint64_t touches, std::uint64_t span);

/// Spoonhower et al.'s general-futures deviation bound: Ω(P·T∞ + t·T∞).
double unstructured_deviation_bound(std::uint64_t procs,
                                    std::uint64_t touches,
                                    std::uint64_t span);

}  // namespace wsf::core
