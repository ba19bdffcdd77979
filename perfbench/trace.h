#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are opened and closed
// around calls into the library from the benchmark's own code; nothing is
// written until WriteJson at the end of the run. A disabled tracer records
// nothing and costs one branch per Begin/End.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

std::uint64_t NowNs();

struct SpanRecord {
  const char* name = "";     // static string: the layer.stage name
  std::uint64_t start_ns = 0;  // relative to the tracer's creation
  std::uint64_t end_ns = 0;
  long parent = -1;   // index of the enclosing span, -1 = root
  long request = -1;  // schedule index of the operation, training step, ...
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  // Opens a span and returns its id (-1 when disabled).
  long Begin(const char* name, long parent = -1, long request = -1);
  void End(long id);
  // Duration of a closed span in ms (0 for the disabled id -1).
  double Ms(long id) const;

  // Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, long parent = -1,
          long request = -1)
        : tracer_(tracer), id_(tracer->Begin(name, parent, request)) {}
    ~Scope() { tracer_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    long id() const { return id_; }

   private:
    Tracer* tracer_;
    long id_;
  };

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Self time (span minus the time its children cover) of every span, ns.
  std::vector<std::uint64_t> SelfTimesNs() const;

  // Durations / self times in ms of every span with this name, in order.
  std::vector<double> DurationsMs(const std::string& name) const;
  std::vector<double> SelfMs(const std::string& name) const;

  // Writes {"spans": [...]} with name, start, end, parent, request and self
  // time per span. Returns false when the file cannot be written.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_;
  std::uint64_t origin_ns_;
  std::vector<SpanRecord> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
