#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "support/check.hpp"

namespace wsf::cache {
namespace {

/// W-way set-associative cache with LRU within each set. The paper's
/// footnote notes Acar et al.'s drifted-node bounds cover set-associative
/// caches too; test_claims checks the Theorem 8 bounds under it.
class SetAssociativeCache final : public CacheModel {
 public:
  SetAssociativeCache(std::size_t lines, std::size_t ways)
      : lines_(lines), ways_(ways), sets_(lines / ways) {
    WSF_REQUIRE(ways_ > 0, "need at least one way");
    WSF_REQUIRE(lines_ > 0 && lines_ % ways_ == 0,
                "lines (" << lines_ << ") must be a multiple of ways ("
                          << ways_ << ")");
    reset();
  }

  void reset() override {
    // Each set holds `ways_` (block, age) pairs; age 0 = most recent.
    blocks_.assign(lines_, core::kNoBlock);
    age_.assign(lines_, 0);
    reset_counters();
  }

  std::size_t capacity() const override { return lines_; }
  std::string name() const override {
    return "assoc" + std::to_string(ways_);
  }

  bool contains(core::BlockId block) const override {
    const std::size_t base = set_of(block) * ways_;
    for (std::size_t w = 0; w < ways_; ++w)
      if (blocks_[base + w] == block) return true;
    return false;
  }

 protected:
  bool lookup_and_insert(core::BlockId block) override {
    const std::size_t base = set_of(block) * ways_;
    std::size_t victim = base;
    std::uint32_t oldest = 0;
    for (std::size_t w = 0; w < ways_; ++w) {
      const std::size_t i = base + w;
      if (blocks_[i] == block) {
        touch_way(base, i);
        return false;
      }
      if (blocks_[i] == core::kNoBlock) {
        // Prefer empty ways outright.
        victim = i;
        oldest = UINT32_MAX;
      } else if (oldest != UINT32_MAX && age_[i] >= oldest) {
        victim = i;
        oldest = age_[i];
      }
    }
    blocks_[victim] = block;
    touch_way(base, victim);
    return true;
  }

 private:
  std::size_t set_of(core::BlockId block) const {
    const auto u = static_cast<std::uint64_t>(block);
    return static_cast<std::size_t>(u % sets_);
  }

  /// Marks way `i` most-recently-used within its set.
  void touch_way(std::size_t base, std::size_t i) {
    for (std::size_t w = 0; w < ways_; ++w) ++age_[base + w];
    age_[i] = 0;
  }

  std::size_t lines_;
  std::size_t ways_;
  std::size_t sets_;
  std::vector<core::BlockId> blocks_;
  std::vector<std::uint32_t> age_;
};

}  // namespace

std::unique_ptr<CacheModel> make_set_associative(std::size_t lines,
                                                 std::size_t ways) {
  return std::make_unique<SetAssociativeCache>(lines, ways);
}

}  // namespace wsf::cache
