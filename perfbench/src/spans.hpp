// Host-time spans for the traced benchmark run.
//
// A span covers one call the benchmark makes into a layer, or one call that
// crosses a forwarding shim the benchmark installs at the vm::RemotePeer or
// vm::VmHooks boundary. Spans nest on a stack; each carries its layer, its
// parent, and its start and end on the host's steady clock. Self time (a
// span minus the part its children cover) is accumulated per layer as spans
// close, so it stays exact even after the bounded span buffer fills; the
// buffer itself is written out once the run ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  apps,      // class registration
  analysis,  // Platform / SurrogateServer construction (startup gates)
  vm,        // the application or remote-access script driving a client VM
  monitor,   // ExecutionMonitor + ResourceMonitor hooks
  platform,  // the Platform's own VmHooks (trigger, offload, link upkeep)
  rpc,       // operations forwarded through vm::RemotePeer
  round,     // one SurrogatePool::run_rounds(1)
  emul,      // Emulator::run / FleetEmulator::run
  record,    // trace recording on a prototype VM
  kCount,
};

inline constexpr std::array<const char*, static_cast<std::size_t>(
                                             Layer::kCount)>
    kLayerNames = {"apps",  "analysis", "vm",   "monitor", "platform",
                   "rpc",   "round",    "emul", "record"};

class SpanRecorder {
 public:
  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  // index into spans(), -1 for a root
    Layer layer = Layer::vm;
  };

  explicit SpanRecorder(std::size_t capacity) : capacity_(capacity) {
    spans_.reserve(capacity);
  }

  static std::int64_t now_ns() noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void begin(Layer layer) {
    Open o;
    o.layer = layer;
    o.start = now_ns();
    if (spans_.size() < capacity_) {
      o.index = static_cast<std::int32_t>(spans_.size());
      Span s;
      s.start_ns = o.start;
      s.layer = layer;
      s.parent = stack_.empty() ? -1 : stack_.back().index;
      spans_.push_back(s);
    } else {
      dropped_ += 1;
    }
    stack_.push_back(o);
  }

  void end() {
    const Open o = stack_.back();
    stack_.pop_back();
    const std::int64_t t = now_ns();
    const std::int64_t dur = t - o.start;
    const auto l = static_cast<std::size_t>(o.layer);
    self_ns_[l] += dur - o.child_ns;
    total_ns_[l] += dur;
    count_[l] += 1;
    if (o.index >= 0) spans_[static_cast<std::size_t>(o.index)].end_ns = t;
    if (!stack_.empty()) stack_.back().child_ns += dur;
  }

  // Per-layer self and total time accumulated so far, in seconds; the
  // difference of two snapshots attributes spans to the work between them.
  struct Totals {
    std::array<double, static_cast<std::size_t>(Layer::kCount)> self_s{};
    std::array<double, static_cast<std::size_t>(Layer::kCount)> total_s{};

    Totals& operator+=(const Totals& o) noexcept {
      for (std::size_t l = 0; l < self_s.size(); ++l) {
        self_s[l] += o.self_s[l];
        total_s[l] += o.total_s[l];
      }
      return *this;
    }
    [[nodiscard]] Totals minus(const Totals& o) const noexcept {
      Totals d = *this;
      for (std::size_t l = 0; l < self_s.size(); ++l) {
        d.self_s[l] -= o.self_s[l];
        d.total_s[l] -= o.total_s[l];
      }
      return d;
    }
    [[nodiscard]] Totals scaled(double k) const noexcept {
      Totals d = *this;
      for (std::size_t l = 0; l < self_s.size(); ++l) {
        d.self_s[l] *= k;
        d.total_s[l] *= k;
      }
      return d;
    }
    [[nodiscard]] double self(Layer l) const noexcept {
      return self_s[static_cast<std::size_t>(l)];
    }
    [[nodiscard]] double total(Layer l) const noexcept {
      return total_s[static_cast<std::size_t>(l)];
    }
  };

  [[nodiscard]] Totals totals() const noexcept {
    Totals t;
    for (std::size_t l = 0; l < t.self_s.size(); ++l) {
      t.self_s[l] = static_cast<double>(self_ns_[l]) * 1e-9;
      t.total_s[l] = static_cast<double>(total_ns_[l]) * 1e-9;
    }
    return t;
  }
  [[nodiscard]] std::uint64_t count(Layer l) const noexcept {
    return count_[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] std::uint64_t recorded() const noexcept {
    return spans_.size();
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }

  // Writes the retained spans as Chrome trace-event JSON ("X" events in
  // microseconds, one thread) plus each span's parent index.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                   "\"parent\": %d}}%s\n",
                   kLayerNames[static_cast<std::size_t>(s.layer)],
                   static_cast<double>(s.start_ns - t0) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   s.parent, i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "], \"spans_dropped\": %llu}\n",
                 static_cast<unsigned long long>(dropped_));
    return std::fclose(f) == 0;
  }

 private:
  struct Open {
    std::int64_t start = 0;
    std::int64_t child_ns = 0;
    std::int32_t index = -1;
    Layer layer = Layer::vm;
  };

  std::size_t capacity_;
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  std::uint64_t dropped_ = 0;
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> self_ns_{};
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> total_ns_{};
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> count_{};
};

// Opens a span for its lifetime; a null recorder (the untraced run) makes it
// a no-op.
class Scope {
 public:
  Scope(SpanRecorder* rec, Layer layer) : rec_(rec) {
    if (rec_ != nullptr) rec_->begin(layer);
  }
  ~Scope() {
    if (rec_ != nullptr) rec_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
};

}  // namespace perfbench
