#pragma once
// In-memory span recorder for the traced benchmark pass.
//
// The benchmark times each layer from outside, around its own calls into
// the layer's public functions; nothing inside src/ is instrumented.  A
// span has a name, start and end (steady_clock ns since the tracer was
// made), its parent span and the op it belongs to.  Spans stay in memory
// until the run ends.  When the tracer is off, Scope does nothing, so the
// untraced pass pays one branch per layer call.

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the parent span, -1 = root
  std::int64_t op = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_on(bool on) { on_ = on; }

  /// RAII span: opened on construction under the innermost open span,
  /// closed on destruction.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, std::int64_t op) : t_(t) {
      if (!t_.on_) return;
      index_ = static_cast<std::int32_t>(t_.spans_.size());
      t_.spans_.push_back({name, t_.now(), 0, t_.open_, op});
      t_.open_ = index_;
    }
    ~Scope() {
      if (index_ < 0) return;
      auto& s = t_.spans_[static_cast<std::size_t>(index_)];
      s.end_ns = t_.now();
      t_.open_ = s.parent;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    std::int32_t index_ = -1;
  };

  /// Self time per span name: each span's duration minus the part of it
  /// its direct children cover (children of one span never overlap: the
  /// benchmark is a single client thread).
  [[nodiscard]] std::map<std::string, double> self_ns_by_name() const {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const auto& s : spans_)
      if (s.parent >= 0)
        child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      self[spans_[i].name] += static_cast<double>(
          spans_[i].end_ns - spans_[i].start_ns - child_ns[i]);
    return self;
  }

  /// Chrome trace-event JSON ("X" events, one thread), loadable in
  /// chrome://tracing or Perfetto.
  void write_chrome(std::ostream& os) const {
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      os << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":"
         << static_cast<double>(s.start_ns) / 1e3
         << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
         << ",\"args\":{\"op\":" << s.op << ",\"span\":" << i
         << ",\"parent\":" << s.parent << "}}";
    }
    os << "\n]}\n";
  }

 private:
  [[nodiscard]] std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  bool on_;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

}  // namespace perfbench
