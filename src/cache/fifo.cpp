#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <unordered_set>

#include "cache/cache.hpp"
#include "support/check.hpp"

namespace wsf::cache {
namespace {

/// Fully associative FIFO: evicts the line that has been resident longest,
/// regardless of use. A "simple" policy in the sense of Acar et al., so the
/// paper's upper bounds also apply to it (test_claims checks them).
class FifoCache final : public CacheModel {
 public:
  explicit FifoCache(std::size_t lines) : lines_(lines) {
    WSF_REQUIRE(lines_ > 0, "cache needs at least one line");
  }

  void reset() override {
    order_.clear();
    resident_.clear();
    reset_counters();
  }

  std::size_t capacity() const override { return lines_; }
  std::string name() const override { return "fifo"; }

  bool contains(core::BlockId block) const override {
    return resident_.count(block) != 0;
  }

 protected:
  bool lookup_and_insert(core::BlockId block) override {
    if (resident_.count(block)) return false;
    if (order_.size() == lines_) {
      resident_.erase(order_.front());
      order_.pop_front();
    }
    order_.push_back(block);
    resident_.insert(block);
    return true;
  }

 private:
  std::size_t lines_;
  std::deque<core::BlockId> order_;
  std::unordered_set<core::BlockId> resident_;
};

}  // namespace

std::unique_ptr<CacheModel> make_fifo(std::size_t lines) {
  return std::make_unique<FifoCache>(lines);
}

}  // namespace wsf::cache
