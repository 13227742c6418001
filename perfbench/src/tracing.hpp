// Host-time spans for the traced run, recorded from outside the library.
//
// The traced run assembles the same system as dnn::Harness, but hands the
// runtime a TimedPolicy (through core::Runtime::PolicyFactory) and the
// engine a TimedExecContext.  Each decorator opens a span around every call
// it forwards; the benchmark's own iteration loop opens the dnn.* spans.
// Spans are kept in memory (name, start, end, parent, iteration id) and
// written out at exit.  A span's self time is its duration minus the time
// its child spans cover, so the self times of all spans of one iteration add
// up to the iteration span exactly.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dnn/exec_context.hpp"
#include "policy/policy.hpp"

namespace perfbench {

enum class SpanName : std::uint8_t {
  kIteration,
  kForward,
  kBackward,
  kSgdStep,
  kEndIteration,
  kDrainTransfers,
  kPlaceNew,
  kWillUse,
  kWillRead,
  kWillReadPartial,
  kWillWrite,
  kArchive,
  kRetire,
  kOnDestroy,
  kBeginKernel,
  kEndKernel,
  kExecChargeMemory,
  kTwoLmChargeMemory,
  kCount,
};

inline constexpr std::size_t kSpanNames =
    static_cast<std::size_t>(SpanName::kCount);

/// Metric-style name of a span ("policy.place_new", "dnn.forward", ...).
const char* span_name(SpanName name) noexcept;

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = 0;  ///< index of the parent span; own for roots
  std::uint32_t iteration = 0;
  SpanName name = SpanName::kIteration;
};

/// Per-iteration reduction of the spans: self time, total time and call
/// count per span name, plus the host duration of every kernel.
struct IterationProfile {
  std::array<std::int64_t, kSpanNames> self_ns{};
  std::array<std::int64_t, kSpanNames> total_ns{};
  std::array<std::uint64_t, kSpanNames> calls{};
  std::vector<std::int64_t> kernel_ns;  ///< host time of each kernel
  std::uint64_t kernels = 0;            ///< engine kernel launches
  std::size_t first_span = 0;           ///< index of its first span
};

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}

  /// Iteration id of the spans recorded before the first iteration (model
  /// construction); they are kept out of every iteration's profile.
  static constexpr std::uint32_t kSetup = 0xffffffffu;

  /// Start iteration `id`: every span opened until the next call belongs
  /// to it.
  void begin_iteration(std::uint32_t id);

  std::uint32_t open(SpanName name);
  void close(std::uint32_t index);

  /// Engine kernel hook: one launch finished.  A kernel's host time runs
  /// from the end of the previous launch of its iteration to the end of
  /// its own, so it covers its staging hints and its policy.begin_kernel
  /// calls (the engine makes two per launch, and CachedArray accessors make
  /// more outside any launch, so begin_kernel cannot mark launches).
  void on_kernel_done();

  [[nodiscard]] const std::vector<IterationProfile>& profiles() const {
    return profiles_;
  }

  /// Write the spans of iteration `id` as Chrome trace-event JSON (loads
  /// in Perfetto).  Returns the number written, or -1 when the file cannot
  /// be opened.
  long write_chrome_trace(const std::string& path, std::uint32_t id) const;

 private:
  struct Open {
    std::uint32_t index;
    std::int64_t child_ns;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Spans live in fixed-size chunks so recording never copies the ones
  /// already taken (a vector reallocation would land inside some span).
  static constexpr std::size_t kChunk = std::size_t{1} << 16;
  [[nodiscard]] Span& at(std::size_t i) const {
    return chunks_[i / kChunk][i % kChunk];
  }

  std::chrono::steady_clock::time_point epoch_;
  std::vector<std::unique_ptr<Span[]>> chunks_;
  std::size_t size_ = 0;
  std::vector<Open> stack_;
  [[nodiscard]] IterationProfile& profile(std::uint32_t id) {
    return id == kSetup ? setup_ : profiles_[id];
  }

  std::vector<IterationProfile> profiles_;
  IterationProfile setup_;
  std::uint32_t iteration_ = kSetup;
  std::int64_t last_kernel_end_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, SpanName name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t index_;
};

/// Forwards every Policy call to `inner`, inside a policy.<hook> span.
class TimedPolicy final : public ca::policy::Policy {
 public:
  TimedPolicy(std::unique_ptr<ca::policy::Policy> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  ca::dm::Region& place_new(ca::dm::Object& object) override;
  void will_use(ca::dm::Object& object) override;
  void will_read(ca::dm::Object& object) override;
  void will_write(ca::dm::Object& object) override;
  void archive(ca::dm::Object& object) override;
  void will_read_partial(ca::dm::Object& object, std::size_t bytes) override;
  bool retire(ca::dm::Object& object) override;
  void on_destroy(ca::dm::Object& object) override;
  void begin_kernel(std::span<ca::dm::Object* const> args) override;
  void end_kernel() override;
  void set_pressure_handler(PressureHandler handler) override;

 private:
  std::unique_ptr<ca::policy::Policy> inner_;
  Tracer& tracer_;
};

/// Forwards charge_memory to `inner`, inside an exec.charge_memory or
/// twolm.charge_memory span.  Owns its own kernel pool and scratch, sized
/// like the context it wraps.
class TimedExecContext final : public ca::dnn::ExecContext {
 public:
  TimedExecContext(std::unique_ptr<ca::dnn::ExecContext> inner,
                   std::size_t kernel_threads, Tracer& tracer, SpanName name)
      : ExecContext(kernel_threads),
        inner_(std::move(inner)),
        tracer_(tracer),
        name_(name) {}

  double charge_memory(std::span<const ca::dnn::ArgAccess> args) override {
    ScopedSpan span(tracer_, name_);
    return inner_->charge_memory(args);
  }

 private:
  std::unique_ptr<ca::dnn::ExecContext> inner_;
  Tracer& tracer_;
  SpanName name_;
};

}  // namespace perfbench
