#include "tracing.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

const char* span_name(SpanName name) noexcept {
  switch (name) {
    case SpanName::kIteration: return "iteration";
    case SpanName::kForward: return "dnn.forward";
    case SpanName::kBackward: return "dnn.backward";
    case SpanName::kSgdStep: return "dnn.sgd_step";
    case SpanName::kEndIteration: return "dnn.end_iteration";
    case SpanName::kDrainTransfers: return "dm.drain_transfers";
    case SpanName::kPlaceNew: return "policy.place_new";
    case SpanName::kWillUse: return "policy.will_use";
    case SpanName::kWillRead: return "policy.will_read";
    case SpanName::kWillReadPartial: return "policy.will_read_partial";
    case SpanName::kWillWrite: return "policy.will_write";
    case SpanName::kArchive: return "policy.archive";
    case SpanName::kRetire: return "policy.retire";
    case SpanName::kOnDestroy: return "policy.on_destroy";
    case SpanName::kBeginKernel: return "policy.begin_kernel";
    case SpanName::kEndKernel: return "policy.end_kernel";
    case SpanName::kExecChargeMemory: return "exec.charge_memory";
    case SpanName::kTwoLmChargeMemory: return "twolm.charge_memory";
    case SpanName::kCount: break;
  }
  return "?";
}

void Tracer::begin_iteration(std::uint32_t id) {
  iteration_ = id;
  if (profiles_.size() <= id) profiles_.resize(id + 1);
  profiles_[id].first_span = size_;
  last_kernel_end_ = -1;
}

std::uint32_t Tracer::open(SpanName name) {
  if (size_ % kChunk == 0) chunks_.push_back(std::make_unique<Span[]>(kChunk));
  const auto index = static_cast<std::uint32_t>(size_++);
  Span& s = at(index);
  s.parent = stack_.empty() ? index : stack_.back().index;
  s.iteration = iteration_;
  s.name = name;
  stack_.push_back({index, 0});
  s.start_ns = now_ns();  // last, so the bookkeeping is not timed
  return index;
}

void Tracer::close(std::uint32_t index) {
  const std::int64_t end = now_ns();
  Span& s = at(index);
  s.end_ns = end;
  const Open top = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end - s.start_ns;
  auto& p = profile(s.iteration);
  const auto n = static_cast<std::size_t>(s.name);
  p.self_ns[n] += duration - top.child_ns;
  p.total_ns[n] += duration;
  ++p.calls[n];
  if (!stack_.empty()) stack_.back().child_ns += duration;
}

void Tracer::on_kernel_done() {
  const std::int64_t now = now_ns();
  auto& p = profile(iteration_);
  if (last_kernel_end_ >= 0) p.kernel_ns.push_back(now - last_kernel_end_);
  last_kernel_end_ = now;
  ++p.kernels;
}

long Tracer::write_chrome_trace(const std::string& path,
                                std::uint32_t id) const {
  if (id >= profiles_.size()) return 0;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return -1;
  std::fputs("{\"traceEvents\": [\n", f);
  long written = 0;
  for (std::size_t i = profiles_[id].first_span; i < size_; ++i) {
    const Span& s = at(i);
    if (s.iteration != id) break;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"iteration\": %u, "
                 "\"span\": %zu, \"parent\": %u}}",
                 written == 0 ? "" : ",\n", span_name(s.name),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.iteration,
                 i, s.parent);
    ++written;
  }
  std::fputs("\n]}\n", f);
  std::fclose(f);
  return written;
}

// --- TimedPolicy -------------------------------------------------------------

ca::dm::Region& TimedPolicy::place_new(ca::dm::Object& object) {
  ScopedSpan span(tracer_, SpanName::kPlaceNew);
  return inner_->place_new(object);
}

void TimedPolicy::will_use(ca::dm::Object& object) {
  ScopedSpan span(tracer_, SpanName::kWillUse);
  inner_->will_use(object);
}

void TimedPolicy::will_read(ca::dm::Object& object) {
  ScopedSpan span(tracer_, SpanName::kWillRead);
  inner_->will_read(object);
}

void TimedPolicy::will_write(ca::dm::Object& object) {
  ScopedSpan span(tracer_, SpanName::kWillWrite);
  inner_->will_write(object);
}

void TimedPolicy::archive(ca::dm::Object& object) {
  ScopedSpan span(tracer_, SpanName::kArchive);
  inner_->archive(object);
}

void TimedPolicy::will_read_partial(ca::dm::Object& object,
                                    std::size_t bytes) {
  ScopedSpan span(tracer_, SpanName::kWillReadPartial);
  inner_->will_read_partial(object, bytes);
}

bool TimedPolicy::retire(ca::dm::Object& object) {
  ScopedSpan span(tracer_, SpanName::kRetire);
  return inner_->retire(object);
}

void TimedPolicy::on_destroy(ca::dm::Object& object) {
  ScopedSpan span(tracer_, SpanName::kOnDestroy);
  inner_->on_destroy(object);
}

void TimedPolicy::begin_kernel(std::span<ca::dm::Object* const> args) {
  ScopedSpan span(tracer_, SpanName::kBeginKernel);
  inner_->begin_kernel(args);
}

void TimedPolicy::end_kernel() {
  ScopedSpan span(tracer_, SpanName::kEndKernel);
  inner_->end_kernel();
}

void TimedPolicy::set_pressure_handler(PressureHandler handler) {
  inner_->set_pressure_handler(std::move(handler));
}

}  // namespace perfbench
