#include "sim/slab.hpp"

#include "testing/fault_injection.hpp"
#include "util/check.hpp"

namespace dec {

std::uint32_t MessageSlab::allocate_index(std::size_t n) {
  // Chaos hook: an armed kAllocFail plan throws std::bad_alloc from inside
  // a running round, exercising abort_round on whichever shard spilled.
  DEC_FAULT_POINT("slab.alloc");
  DEC_REQUIRE(n <= kChunkFields,
              "index-addressed slab block wider than one chunk");
  if (chunk_ < chunks_.size() && offset_ + n > kChunkFields) {
    ++chunk_;
    offset_ = 0;
  }
  if (chunk_ == chunks_.size()) {
    chunks_.push_back(std::make_unique<std::int64_t[]>(kChunkFields));
    offset_ = 0;
  }
  const std::size_t idx = (chunk_ << kChunkShift) | offset_;
  DEC_CHECK(idx <= 0xffffff,
            "slot spill arena exhausted: more than 2^24 spilled fields in "
            "one shard's round — shard the run further");
  offset_ += n;
  used_ += n;
  return static_cast<std::uint32_t>(idx);
}

void MessageSlab::reset() {
  chunk_ = 0;
  offset_ = 0;
  used_ = 0;
}

}  // namespace dec
