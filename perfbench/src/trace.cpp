#include "trace.hpp"

#include <cstdio>

namespace perfbench {

void Tracer::add(const std::vector<SpanRecord>& spans) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<SpanRecord> all = spans();
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "  {\"id\": %llu, \"parent\": %llu, \"job\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.job), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent,
                       std::uint64_t job)
    : tracer_(tracer) {
  rec_.id = tracer.new_id();
  rec_.parent = parent;
  rec_.job = job;
  rec_.name = name;
  rec_.start_ns = tracer.now_ns();
}

double ScopedSpan::close() {
  if (open_) {
    rec_.end_ns = tracer_.now_ns();
    tracer_.add(rec_);
    open_ = false;
  }
  return rec_.seconds();
}

}  // namespace perfbench
