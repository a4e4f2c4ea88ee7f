// Tracing for the end-to-end benchmark, recorded from outside the library.
//
// The traced run wraps the public interfaces the library exposes:
//   * every leaf nn::Layer of the model in a TracedLayer (forward/backward
//     spans while training) and the model root in one that records
//     eval-mode forwards,
//   * the SyncPolicy in a PolicyProbe (one span per MaybeSync, plus the
//     round counts and the SimNetwork byte deltas around each call).
// Spans live in memory (SpanLog) and are written out when the run ends;
// each records its name, start, end and parent span, so self time is the
// span's duration minus its children's.
//
// Calls that cannot be wrapped from outside (optimizer step, codec mask
// and encode, monitor state, client-store paging, fault rounds, reduces)
// are replayed at the workload's shapes and multiplied by the run's counts
// (AddReplayedLayers in main.cc).

#ifndef FEDRA_PERFBENCH_TRACE_H_
#define FEDRA_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "nn/layer.h"
#include "nn/model.h"

namespace perf {

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// The span names the benchmark records. Layer kinds follow the per-layer
/// metric names (nn.<kind>.<fwd|bwd>).
enum class SpanName : uint8_t {
  kRun,          // core.trainer.run: one DistributedTrainer/AsyncFdaTrainer
                 // Run() call
  kEvalFwd,      // metrics.eval_fwd: a model forward with training = false
  kPolicyDecide,  // core.policy.decide: a MaybeSync that did not sync
  kPolicySync,    // core.policy.sync: a MaybeSync that synchronized
  kConv2dFwd,
  kConv2dBwd,
  kPoolFwd,
  kPoolBwd,
  kDenseFwd,
  kDenseBwd,
  kBatchNormFwd,
  kBatchNormBwd,
  kOtherFwd,
  kOtherBwd,
  kCount,
};

const char* SpanNameString(SpanName name);

/// In-memory span store. Thread-safe; each thread keeps its own stack of
/// open spans so nesting (the parent link) is per thread. Spans opened on a
/// thread with no open span are parented to the current root span.
class SpanLog {
 public:
  struct Span {
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    SpanName name = SpanName::kRun;
  };

  /// Opens a span and returns its id.
  int Begin(SpanName name);
  /// Closes span `id` (renaming it when `name` is given).
  void End(int id);
  void End(int id, SpanName name);

  /// Spans opened with no parent on their thread attach to this one.
  void SetRoot(int id) { root_ = id; }

  /// Per-name totals of self time (duration minus children) in seconds.
  std::vector<double> SelfSeconds() const;
  size_t size() const;

  /// Writes "id,parent,name,start_ns,end_ns" lines (times relative to the
  /// first span). Returns false on an I/O error.
  bool WriteCsv(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  int root_ = -1;
};

/// The active span log, or null when the run is untraced.
SpanLog* ActiveSpans();
void SetActiveSpans(SpanLog* log);

/// Makes `log` the active span log for the scope's lifetime.
class TracingScope {
 public:
  explicit TracingScope(SpanLog* log) { SetActiveSpans(log); }
  ~TracingScope() { SetActiveSpans(nullptr); }
  TracingScope(const TracingScope&) = delete;
  TracingScope& operator=(const TracingScope&) = delete;
};

/// RAII span: no-op when tracing is off or `name` is SpanName::kCount.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int id_ = -1;
};

/// Timing decorator around one layer: one span per training forward,
/// backward and eval-mode forward call, each under its own name
/// (SpanName::kCount records none).
class TracedLayer : public fedra::Layer {
 public:
  TracedLayer(fedra::LayerPtr inner, SpanName train_fwd, SpanName bwd,
              SpanName eval_fwd)
      : inner_(std::move(inner)), train_fwd_(train_fwd), bwd_(bwd),
        eval_fwd_(eval_fwd) {}

  std::string name() const override { return inner_->name(); }
  void RegisterParams(fedra::ParameterStore* store) override {
    inner_->RegisterParams(store);
  }
  void BindOffsets(const fedra::ParameterStore& store) override {
    inner_->BindOffsets(store);
  }
  void InitParams(fedra::Rng* rng, const fedra::ParameterView& view) override {
    inner_->InitParams(rng, view);
  }
  fedra::Tensor Forward(const fedra::Tensor& input,
                        fedra::ExecContext& ctx) override {
    ScopedSpan span(ctx.training ? train_fwd_ : eval_fwd_);
    return inner_->Forward(input, ctx);
  }
  fedra::Tensor Backward(const fedra::Tensor& grad_output,
                         fedra::ExecContext& ctx) override {
    ScopedSpan span(bwd_);
    return inner_->Backward(grad_output, ctx);
  }

 private:
  fedra::LayerPtr inner_;
  SpanName train_fwd_;
  SpanName bwd_;
  SpanName eval_fwd_;
};

/// Model factories mirroring nn/zoo.h layer for layer (same constructors,
/// same registration order, so the parameter layout and initialization
/// are identical) with every leaf layer and the root wrapped in a
/// TracedLayer. The
/// traced run's outputs are compared against the untraced zoo model's, so
/// a drift between these and the zoo fails the benchmark.
std::unique_ptr<fedra::Model> TracedLeNet5(int in_channels, int image_size,
                                           int num_classes);
std::unique_ptr<fedra::Model> TracedMlp(int input_dim,
                                        const std::vector<int>& hidden,
                                        int num_classes);
std::unique_ptr<fedra::Model> TracedDenseNetLite(int in_channels,
                                                 int image_size,
                                                 int num_classes,
                                                 int layers_per_block,
                                                 int growth);

/// SyncPolicy decorator: times the wrapped policy and counts what each
/// round did, including the model-sync bytes billed inside MaybeSync.
/// Always on (a few counter reads per round); spans and the
/// Round Invariant audit are traced-run only.
class PolicyProbe : public fedra::SyncPolicy {
 public:
  /// `audit_theta` > 0 enables the exact-variance audit after every round
  /// without a synchronization (traced runs of FDA policies only).
  PolicyProbe(fedra::SyncPolicy* inner, double audit_theta,
              double audit_epsilon)
      : inner_(inner), audit_theta_(audit_theta),
        audit_epsilon_(audit_epsilon) {}

  void Initialize(fedra::ClusterContext& ctx) override;
  bool MaybeSync(fedra::ClusterContext& ctx) override;
  std::string name() const override { return inner_->name(); }

  uint64_t rounds = 0;       // MaybeSync calls
  uint64_t syncs = 0;        // MaybeSync calls that synchronized
  uint64_t round_participants = 0;  // sum over rounds of participants
  uint64_t sync_participants = 0;   // sum over syncs of participants
  uint64_t sync_bytes = 0;   // model-sync bytes billed inside MaybeSync
  // Audit results (traced runs with audit_theta > 0).
  uint64_t audited_rounds = 0;
  uint64_t rounds_over_theta = 0;    // exact Var > Theta
  uint64_t rounds_over_bound = 0;    // exact Var > Theta + eps ||u_bar||^2
  int64_t audit_ns = 0;              // time the audit itself took

 private:
  void Audit(fedra::ClusterContext& ctx);

  fedra::SyncPolicy* inner_;
  double audit_theta_;
  double audit_epsilon_;
};

}  // namespace perf

#endif  // FEDRA_PERFBENCH_TRACE_H_
