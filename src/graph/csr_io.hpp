// Binary CSR graph files with mmap-backed loading.
//
// The plain-text edge list (graph/io.hpp) tops out around n = 10^4: parsing
// dominates, and the loader re-sorts and re-dedups what the writer already
// ordered. This format is the million-node path: a fixed little-endian
// layout a loader can validate from the header alone, map read-only, and
// hand to Graph::from_csr without ever materializing an intermediate edge
// list or re-running the O(m log m) canonicalization.
//
// File layout (all fields little-endian, every section 8-byte aligned):
//
//   offset  size            field
//   ------  --------------  ---------------------------------------------
//        0  8               magic "DECCSR1\0"
//        8  4               version (currently 1)
//       12  4               flags (reserved, must be 0)
//       16  8               n  (node count, u64)
//       24  8               m  (edge count, u64)
//       32  8               checksum over both payload sections (see
//                           csr_checksum)
//       40  (n + 1) * 8     adjacency offsets, u64: offsets[v] is the CSR
//                           position of node v's first incidence;
//                           offsets[n] == 2m
//   ...     m * 8           packed edge endpoints, u32 pairs (u, v) in
//                           canonical edge-id order: u < v, strictly
//                           increasing lexicographically
//
// Trust model: the header is never believed blindly — n/m are bounded
// against the NodeId/EdgeId domains and the declared section sizes against
// the actual file size before anything is allocated or touched, so a
// corrupt or hostile header cannot trigger a multi-GB allocation or an
// out-of-bounds read. CsrTrust::kVerify (the default) additionally runs the
// checksum over both sections; kTrusted skips only that pass — the O(m)
// structural validation inside Graph::from_csr (canonical order, endpoint
// ranges, offsets vs endpoints) always runs, so even a "trusted" file can
// be rejected, never mis-loaded.
//
// Ownership: CsrMapping owns the mapping (or the read() fallback buffer)
// and must outlive every span it hands out. read_csr() copies into the
// returned Graph before the mapping dies; callers that want zero-copy
// access keep the CsrMapping alive and read the spans directly.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "graph/graph.hpp"

namespace dec {

enum class CsrTrust {
  /// Validate the checksum over both payload sections (default).
  kVerify,
  /// Skip the checksum pass; header bounds and the O(m) structural
  /// validation in Graph::from_csr still apply.
  kTrusted,
};

/// Mixing checksum over the two payload sections plus (n, m). One
/// multiply-xor-shift step per 64-bit word — fast enough to be on by
/// default for multi-hundred-MB files.
std::uint64_t csr_checksum(std::uint64_t n, std::uint64_t m,
                           std::span<const std::uint64_t> offsets,
                           std::span<const std::uint32_t> endpoints);

/// Read-only view of a CSR file: opens, maps (falling back to a plain read
/// into a heap buffer when mmap is unavailable), and validates the header
/// and section bounds. Throws CheckError on any malformation.
class CsrMapping {
 public:
  explicit CsrMapping(const std::string& path);
  ~CsrMapping();

  CsrMapping(const CsrMapping&) = delete;
  CsrMapping& operator=(const CsrMapping&) = delete;

  NodeId num_nodes() const { return n_; }
  EdgeId num_edges() const { return m_; }

  /// n + 1 adjacency offsets (validated monotone by Graph::from_csr).
  std::span<const std::uint64_t> offsets() const {
    return {offsets_, static_cast<std::size_t>(n_) + 1};
  }

  /// 2m endpoint words: edge e is (endpoints()[2e], endpoints()[2e + 1]).
  std::span<const std::uint32_t> endpoints() const {
    return {endpoints_, 2 * static_cast<std::size_t>(m_)};
  }

  /// Recompute the payload checksum and compare against the header's;
  /// throws CheckError on mismatch.
  void verify_checksum() const;

  /// Whether the file is mmap'ed (vs the read() fallback buffer).
  bool mapped() const { return mapped_; }

 private:
  NodeId n_ = 0;
  EdgeId m_ = 0;
  std::uint64_t stored_checksum_ = 0;
  const std::uint64_t* offsets_ = nullptr;
  const std::uint32_t* endpoints_ = nullptr;
  void* base_ = nullptr;       // mmap base (when mapped_)
  std::size_t size_ = 0;       // file size in bytes
  char* fallback_ = nullptr;   // heap buffer (when !mapped_)
  bool mapped_ = false;
};

/// Write `g` to `path` in the binary CSR format. Overwrites existing files;
/// throws CheckError on I/O failure, and before touching the file when
/// `g`'s edge list is not canonical (u < v, strictly increasing — what
/// GraphBuilder::build() emits; gen::random_regular, for one, does not).
void write_csr(const std::string& path, const Graph& g);

/// Map `path` and construct the graph through the Graph::from_csr fast
/// path. The loaded graph is bit-identical (edge list, adjacency order,
/// degree caches) to the Graph the file was written from.
Graph read_csr(const std::string& path, CsrTrust trust = CsrTrust::kVerify);

}  // namespace dec
