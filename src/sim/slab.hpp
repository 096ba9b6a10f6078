// Bump-pointer slab arena for spilled message payloads.
//
// SyncNetwork slots store one field inline; wider payloads spill into a
// MessageSlab owned by the network (one per shard per buffer generation),
// addressed by index. Allocation is a bump, deallocation is a bulk
// reset() at the round boundary — individual blocks are never freed, so the
// round hot path performs no general-heap traffic. Chunks are retained across
// resets and reused, so a steady-state workload allocates nothing at all.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace dec {

class MessageSlab {
 public:
  MessageSlab() = default;
  MessageSlab(const MessageSlab&) = delete;
  MessageSlab& operator=(const MessageSlab&) = delete;
  MessageSlab(MessageSlab&&) = default;
  MessageSlab& operator=(MessageSlab&&) = default;

  /// Bump-allocate an index-addressed block of `n` fields and return its
  /// field index (resolve with at_index). Never freed individually; the
  /// block lives until the next reset(). Every chunk is exactly
  /// kChunkFields fields, so an index decomposes as chunk = idx >>
  /// kChunkShift, offset = idx & (kChunkFields - 1), and a block never
  /// straddles chunks — the slot's 24-bit spill index cannot hold a
  /// pointer. Requires n <= kChunkFields; throws (actionably) past the
  /// 24-bit index space.
  std::uint32_t allocate_index(std::size_t n);

  /// Resolve an allocate_index() block.
  const std::int64_t* at_index(std::uint32_t idx) const {
    return chunks_[idx >> kChunkShift].get() + (idx & (kChunkFields - 1));
  }
  std::int64_t* at_index(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift].get() + (idx & (kChunkFields - 1));
  }

  /// Rewind the arena. All previously allocated blocks become invalid, but
  /// their chunks are kept for reuse.
  void reset();

  /// Fields currently allocated since the last reset (for tests/stats).
  std::size_t used() const { return used_; }

  /// Bytes held by the arena's chunks (kept across resets; for the memory
  /// budget report).
  std::size_t capacity_bytes() const {
    return chunks_.size() * kChunkFields * sizeof(std::int64_t);
  }

 private:
  static constexpr std::size_t kChunkShift = 14;
  static constexpr std::size_t kChunkFields = 1 << kChunkShift;  // 128 KiB

  std::vector<std::unique_ptr<std::int64_t[]>> chunks_;
  std::size_t chunk_ = 0;   // index of the chunk currently bumped
  std::size_t offset_ = 0;  // fields used within chunks_[chunk_]
  std::size_t used_ = 0;    // total fields since last reset
};

}  // namespace dec
