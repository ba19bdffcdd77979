#include "trace.h"

#include <chrono>
#include <cstdio>
#include <cstring>

#include "measure.h"

namespace perfbench {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_ns_(NowNs()) {
  if (enabled_) spans_.reserve(1 << 16);
}

long Tracer::Begin(const char* name, long parent, long request) {
  if (!enabled_) return -1;
  SpanRecord s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start_ns = NowNs() - origin_ns_;
  spans_.push_back(s);
  return static_cast<long>(spans_.size()) - 1;
}

void Tracer::End(long id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = NowNs() - origin_ns_;
}

double Tracer::Ms(long id) const {
  if (id < 0) return 0.0;
  const SpanRecord& s = spans_[static_cast<std::size_t>(id)];
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
}

std::vector<std::uint64_t> Tracer::SelfTimesNs() const {
  std::vector<Interval> iv(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    iv[i] = Interval{spans_[i].start_ns, spans_[i].end_ns, spans_[i].parent};
  }
  return SelfTimes(iv);
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

std::vector<double> Tracer::SelfMs(const std::string& name) const {
  const std::vector<std::uint64_t> self = SelfTimesNs();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) {
      out.push_back(static_cast<double>(self[i]) * 1e-6);
    }
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<std::uint64_t> self = SelfTimesNs();
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %llu, "
                 "\"end_ns\": %llu, \"parent\": %ld, \"request\": %ld, "
                 "\"self_ns\": %llu}%s\n",
                 i, s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent,
                 s.request, static_cast<unsigned long long>(self[i]),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
