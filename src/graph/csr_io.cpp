#include "graph/csr_io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <vector>

namespace dec {

// The on-disk format is little-endian and the loader reads sections in
// place; big-endian hosts would need a byte-swapping load path nobody has
// asked for yet.
static_assert(std::endian::native == std::endian::little,
              "binary CSR I/O assumes a little-endian host");

namespace {

constexpr std::uint64_t kCsrMagic = 0x0031525343434544ULL;  // "DECCSR1\0"
constexpr std::uint32_t kCsrVersion = 1;
constexpr std::size_t kHeaderBytes = 40;

struct CsrHeader {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t flags;
  std::uint64_t n;
  std::uint64_t m;
  std::uint64_t checksum;
};
static_assert(sizeof(CsrHeader) == kHeaderBytes);

std::size_t offsets_bytes(std::uint64_t n) {
  return (static_cast<std::size_t>(n) + 1) * sizeof(std::uint64_t);
}

std::size_t endpoints_bytes(std::uint64_t m) {
  return static_cast<std::size_t>(m) * 2 * sizeof(std::uint32_t);
}

}  // namespace

std::uint64_t csr_checksum(std::uint64_t n, std::uint64_t m,
                           std::span<const std::uint64_t> offsets,
                           std::span<const std::uint32_t> endpoints) {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  const auto mix = [&h](std::uint64_t w) {
    h ^= w;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
  };
  mix(n);
  mix(m);
  for (const std::uint64_t w : offsets) mix(w);
  for (std::size_t i = 0; i + 1 < endpoints.size(); i += 2) {
    mix(static_cast<std::uint64_t>(endpoints[i]) |
        (static_cast<std::uint64_t>(endpoints[i + 1]) << 32));
  }
  return h;
}

CsrMapping::CsrMapping(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw CheckError("csr: cannot open '" + path + "': " +
                     std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw CheckError("csr: cannot stat '" + path + "': " +
                     std::strerror(err));
  }
  size_ = static_cast<std::size_t>(st.st_size);

  // Header first: every byte count below is derived from n and m, so both
  // are bounds-checked against their id domains AND the declared section
  // sizes against the real file size before any section is touched. A
  // hostile header (say m = 2^31 - 1 on a 3-byte file) dies here, before
  // any allocation proportional to it.
  CsrHeader hdr{};
  if (size_ < kHeaderBytes ||
      ::pread(fd, &hdr, sizeof(hdr), 0) != static_cast<ssize_t>(sizeof(hdr))) {
    ::close(fd);
    throw CheckError("csr: '" + path + "' is too small to hold a header");
  }
  if (hdr.magic != kCsrMagic) {
    ::close(fd);
    throw CheckError("csr: '" + path + "' has a bad magic number");
  }
  if (hdr.version != kCsrVersion || hdr.flags != 0) {
    ::close(fd);
    throw CheckError("csr: '" + path + "' has unsupported version/flags");
  }
  if (hdr.n > static_cast<std::uint64_t>(kMaxNodeId) ||
      hdr.m > static_cast<std::uint64_t>(INT32_MAX)) {
    ::close(fd);
    throw CheckError("csr: '" + path + "' header counts exceed id ranges");
  }
  const std::size_t expected =
      kHeaderBytes + offsets_bytes(hdr.n) + endpoints_bytes(hdr.m);
  if (size_ != expected) {
    ::close(fd);
    throw CheckError("csr: '" + path + "' is " + std::to_string(size_) +
                     " bytes but the header declares " +
                     std::to_string(expected) +
                     " (truncated or corrupt section sizes)");
  }
  n_ = static_cast<NodeId>(hdr.n);
  m_ = static_cast<EdgeId>(hdr.m);
  stored_checksum_ = hdr.checksum;

  void* map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map != MAP_FAILED) {
    base_ = map;
    mapped_ = true;
  } else {
    // Filesystems without mmap support: fall back to one plain read.
    fallback_ = new char[size_];
    std::size_t got = 0;
    while (got < size_) {
      const ssize_t r = ::pread(fd, fallback_ + got, size_ - got,
                                static_cast<off_t>(got));
      if (r <= 0) {
        delete[] fallback_;
        ::close(fd);
        throw CheckError("csr: short read on '" + path + "'");
      }
      got += static_cast<std::size_t>(r);
    }
    base_ = fallback_;
  }
  ::close(fd);  // the mapping (or buffer) survives the descriptor

  const char* bytes = static_cast<const char*>(base_);
  offsets_ = reinterpret_cast<const std::uint64_t*>(bytes + kHeaderBytes);
  endpoints_ = reinterpret_cast<const std::uint32_t*>(
      bytes + kHeaderBytes + offsets_bytes(hdr.n));
}

CsrMapping::~CsrMapping() {
  if (mapped_ && base_ != nullptr) {
    ::munmap(base_, size_);
  }
  delete[] fallback_;
}

void CsrMapping::verify_checksum() const {
  const std::uint64_t got =
      csr_checksum(static_cast<std::uint64_t>(n_),
                   static_cast<std::uint64_t>(m_), offsets(), endpoints());
  DEC_REQUIRE(got == stored_checksum_, "csr: checksum mismatch");
}

void write_csr(const std::string& path, const Graph& g) {
  const std::uint64_t n = static_cast<std::uint64_t>(g.num_nodes());
  const std::uint64_t m = static_cast<std::uint64_t>(g.num_edges());

  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    offsets[static_cast<std::size_t>(v) + 1] =
        offsets[static_cast<std::size_t>(v)] +
        static_cast<std::uint64_t>(g.degree(v));
  }
  std::vector<std::uint32_t> endpoints;
  endpoints.reserve(2 * static_cast<std::size_t>(m));
  std::pair<NodeId, NodeId> prev{-1, -1};
  for (const auto& [u, v] : g.edge_list()) {
    // The format stores canonical edge ids, which read_csr enforces; refuse
    // here rather than write a file that cannot be read back. Renumbering
    // the edges silently would change every edge-indexed result.
    DEC_REQUIRE(u < v && prev < std::pair(u, v),
                "csr: cannot write '" + path +
                    "': the graph's edge list is not canonical (u < v, "
                    "strictly increasing by (u, v)); canonicalize it first "
                    "by rebuilding through GraphBuilder, or by sorting the "
                    "(min, max) endpoint pairs into Graph::from_sorted_unique");
    prev = {u, v};
    endpoints.push_back(static_cast<std::uint32_t>(u));
    endpoints.push_back(static_cast<std::uint32_t>(v));
  }

  CsrHeader hdr{};
  hdr.magic = kCsrMagic;
  hdr.version = kCsrVersion;
  hdr.flags = 0;
  hdr.n = n;
  hdr.m = m;
  hdr.checksum = csr_checksum(n, m, offsets, endpoints);

  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  DEC_REQUIRE(os.good(), "csr: cannot open '" + path + "' for writing");
  os.write(reinterpret_cast<const char*>(&hdr), sizeof(hdr));
  os.write(reinterpret_cast<const char*>(offsets.data()),
           static_cast<std::streamsize>(offsets_bytes(n)));
  os.write(reinterpret_cast<const char*>(endpoints.data()),
           static_cast<std::streamsize>(endpoints_bytes(m)));
  os.flush();
  DEC_REQUIRE(os.good(), "csr: write to '" + path + "' failed");
}

Graph read_csr(const std::string& path, CsrTrust trust) {
  CsrMapping map(path);
  if (trust == CsrTrust::kVerify) {
    map.verify_checksum();
  }
  return Graph::from_csr(map.num_nodes(), map.offsets(), map.endpoints());
}

}  // namespace dec
