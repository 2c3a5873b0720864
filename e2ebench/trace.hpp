// Benchmark-side tracing for the end-to-end benchmark.
//
// Spans are recorded around the benchmark's own calls into the library
// (workload -> setup phase -> solve(spec) -> M apply) and kept in memory;
// write_chrome_json() emits them as Chrome trace-event JSON when the run
// ends.  A disabled Tracer records nothing, and the traced preconditioner
// below is only ever installed in the traced run, where it forwards without
// timing while the tracer is disabled.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "precond/preconditioner.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    double t0_us = 0.0;
    double dur_us = 0.0;
    int parent = -1;
    int tid = 0;
  };

  /// RAII span: closes on destruction.  Inactive when the tracer is off.
  class Scope {
   public:
    Scope(Tracer* t, int id) : t_(t), id_(id) {}
    ~Scope() {
      if (t_ != nullptr) t_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int id_;
  };

  explicit Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

  [[nodiscard]] bool on() const { return on_; }
  /// Switch recording (and the decorator's timing) off and on again; the
  /// traced run uses this for its untraced solves.
  void enable(bool on) { on_ = on; }

  /// Open a span as a child of the calling thread's innermost open span.
  [[nodiscard]] Scope scope(std::string name, int tid = 0) {
    if (!on_) return {nullptr, -1};
    const double t0 = now_us();
    const std::lock_guard<std::mutex> lk(mu_);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), t0, 0.0, current(), tid});
    current() = id;
    return {this, id};
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
  }

  /// Chrome trace-event JSON ("X" complete events; args carry the span id
  /// and the id of the span that caused it).  `other_data` is a JSON object
  /// stored as the file's "otherData" (the run's regime).
  bool write_chrome_json(const std::string& path, const std::string& other_data) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::lock_guard<std::mutex> lk(mu_);
    out << "{\"otherData\":" << other_data << ",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":" << s.t0_us
          << ",\"dur\":" << s.dur_us << ",\"args\":{\"id\":" << i
          << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  }

  /// Innermost open span of the calling thread.
  static int& current() {
    thread_local int id = -1;
    return id;
  }

  void close(int id) {
    const double t1 = now_us();
    const std::lock_guard<std::mutex> lk(mu_);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.dur_us = t1 - s.t0_us;
    if (current() == id) current() = s.parent;
  }

  std::atomic<bool> on_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class TracedPrecond;

/// Apply handle that times every call into the wrapped handle and forwards
/// the wrapped preconditioner's invocation count to the decorator.
template <class VT>
class TracedApply final : public nk::Preconditioner<VT> {
 public:
  TracedApply(std::unique_ptr<nk::Preconditioner<VT>> inner, TracedPrecond& owner)
      : inner_(std::move(inner)), owner_(owner) {}

  void apply(std::span<const VT> r, std::span<VT> z) override;
  void apply_many(const VT* r, std::ptrdiff_t ldr, VT* z, std::ptrdiff_t ldz,
                  int k) override;
  void apply_many_layout(const VT* r, std::ptrdiff_t ldr, VT* z, std::ptrdiff_t ldz, int k,
                         nk::PanelLayout layout) override;
  [[nodiscard]] nk::index_t size() const override { return inner_->size(); }

 private:
  template <class Fn>
  void timed(const char* what, Fn&& fn);

  std::unique_ptr<nk::Preconditioner<VT>> inner_;
  TracedPrecond& owner_;
};

/// PrimaryPrecond decorator handed to Session(p, spec, m) in the traced
/// run: every handle it mints is a TracedApply, so M's time and call count
/// are measured where the work happens.
class TracedPrecond final : public nk::PrimaryPrecond {
 public:
  TracedPrecond(std::shared_ptr<nk::PrimaryPrecond> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] nk::index_t size() const override { return inner_->size(); }

  std::unique_ptr<nk::Preconditioner<double>> make_apply_fp64(nk::Prec s) override {
    return std::make_unique<TracedApply<double>>(inner_->make_apply_fp64(s), *this);
  }
  std::unique_ptr<nk::Preconditioner<float>> make_apply_fp32(nk::Prec s) override {
    return std::make_unique<TracedApply<float>>(inner_->make_apply_fp32(s), *this);
  }
  std::unique_ptr<nk::Preconditioner<nk::half>> make_apply_fp16(nk::Prec s) override {
    return std::make_unique<TracedApply<nk::half>>(inner_->make_apply_fp16(s), *this);
  }

  /// Seconds spent inside M since the last reset_time().
  [[nodiscard]] double apply_seconds() const { return seconds_; }
  void reset_time() { seconds_ = 0.0; }

 private:
  template <class VT>
  friend class TracedApply;

  std::shared_ptr<nk::PrimaryPrecond> inner_;
  Tracer& tracer_;
  double seconds_ = 0.0;
};

template <class VT>
template <class Fn>
void TracedApply<VT>::timed(const char* what, Fn&& fn) {
  // The engine sets the backend on the handle it was given; the wrapped
  // handle must run on the same one.
  if (inner_->backend() != this->backend()) inner_->set_backend(this->backend());
  const std::uint64_t calls0 = owner_.inner_->invocations();
  if (owner_.tracer_.on()) {
    const auto span = owner_.tracer_.scope(what);
    const Clock::time_point t0 = Clock::now();
    fn();
    owner_.seconds_ += seconds_since(t0);
  } else {
    fn();
  }
  owner_.counter_->count += owner_.inner_->invocations() - calls0;
}

template <class VT>
void TracedApply<VT>::apply(std::span<const VT> r, std::span<VT> z) {
  timed("M.apply", [&] { inner_->apply(r, z); });
}

template <class VT>
void TracedApply<VT>::apply_many(const VT* r, std::ptrdiff_t ldr, VT* z, std::ptrdiff_t ldz,
                                 int k) {
  timed("M.apply_many", [&] { inner_->apply_many(r, ldr, z, ldz, k); });
}

template <class VT>
void TracedApply<VT>::apply_many_layout(const VT* r, std::ptrdiff_t ldr, VT* z,
                                        std::ptrdiff_t ldz, int k, nk::PanelLayout layout) {
  timed("M.apply_many_layout",
        [&] { inner_->apply_many_layout(r, ldr, z, ldz, k, layout); });
}

}  // namespace e2e
