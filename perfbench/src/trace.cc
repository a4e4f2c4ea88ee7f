#include "trace.h"

#include <atomic>
#include <cstdio>

#include "nn/composite.h"
#include "nn/layers_basic.h"
#include "nn/layers_conv.h"
#include "nn/layers_norm.h"
#include "util/check.h"

namespace perf {

using fedra::ExecContext;
using fedra::LayerPtr;
using fedra::Tensor;

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kRun: return "core.trainer.run";
    case SpanName::kEvalFwd: return "metrics.eval_fwd";
    case SpanName::kPolicyDecide: return "core.policy.decide";
    case SpanName::kPolicySync: return "core.policy.sync";
    case SpanName::kConv2dFwd: return "nn.conv2d.fwd";
    case SpanName::kConv2dBwd: return "nn.conv2d.bwd";
    case SpanName::kPoolFwd: return "nn.pool.fwd";
    case SpanName::kPoolBwd: return "nn.pool.bwd";
    case SpanName::kDenseFwd: return "nn.dense.fwd";
    case SpanName::kDenseBwd: return "nn.dense.bwd";
    case SpanName::kBatchNormFwd: return "nn.batchnorm.fwd";
    case SpanName::kBatchNormBwd: return "nn.batchnorm.bwd";
    case SpanName::kOtherFwd: return "nn.other.fwd";
    case SpanName::kOtherBwd: return "nn.other.bwd";
    case SpanName::kCount: break;
  }
  return "unknown";
}

// ------------------------------------------------------------- SpanLog --

namespace {

std::atomic<SpanLog*> g_active_spans{nullptr};
thread_local std::vector<int> t_open_spans;

}  // namespace

SpanLog* ActiveSpans() { return g_active_spans.load(std::memory_order_acquire); }

void SetActiveSpans(SpanLog* log) {
  g_active_spans.store(log, std::memory_order_release);
}

int SpanLog::Begin(SpanName name) {
  Span span;
  span.name = name;
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    span.parent = t_open_spans.empty() ? root_ : t_open_spans.back();
    id = static_cast<int>(spans_.size());
    spans_.push_back(span);
    spans_.back().start_ns = NowNs();
  }
  t_open_spans.push_back(id);
  return id;
}

void SpanLog::End(int id) {
  const int64_t now = NowNs();
  FEDRA_CHECK(!t_open_spans.empty() && t_open_spans.back() == id)
      << "span " << id << " closed out of order";
  t_open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

void SpanLog::End(int id, SpanName name) {
  End(id);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].name = name;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<double> SpanLog::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::vector<double> self(static_cast<size_t>(SpanName::kCount), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    self[static_cast<size_t>(span.name)] +=
        Seconds(span.end_ns - span.start_ns - child_ns[i]);
  }
  return self;
}

bool SpanLog::WriteCsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(file, "id,parent,name,start_ns,end_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file, "%zu,%d,%s,%lld,%lld\n", i, span.parent,
                 SpanNameString(span.name),
                 static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.end_ns - origin));
  }
  return std::fclose(file) == 0;
}

ScopedSpan::ScopedSpan(SpanName name) {
  SpanLog* log = ActiveSpans();
  if (log != nullptr && name != SpanName::kCount) {
    id_ = log->Begin(name);
  }
}

ScopedSpan::~ScopedSpan() {
  if (id_ >= 0) {
    ActiveSpans()->End(id_);
  }
}

// ------------------------------------------------------ traced models --

namespace {

using fedra::Activation;
using fedra::init::Scheme;

/// Layer kind of the nn.<kind>.* metrics.
enum class LayerKind { kConv2d, kPool, kDense, kBatchNorm, kOther };

LayerPtr Wrap(LayerPtr layer, LayerKind kind) {
  static constexpr SpanName kFwd[] = {SpanName::kConv2dFwd, SpanName::kPoolFwd,
                                      SpanName::kDenseFwd,
                                      SpanName::kBatchNormFwd,
                                      SpanName::kOtherFwd};
  static constexpr SpanName kBwd[] = {SpanName::kConv2dBwd, SpanName::kPoolBwd,
                                      SpanName::kDenseBwd,
                                      SpanName::kBatchNormBwd,
                                      SpanName::kOtherBwd};
  const auto k = static_cast<size_t>(kind);
  // Eval-mode forwards are covered by the root's metrics.eval_fwd span.
  return std::make_unique<TracedLayer>(std::move(layer), kFwd[k], kBwd[k],
                                       SpanName::kCount);
}

LayerPtr Conv(int in_c, int out_c, int k, int stride, int pad, Scheme scheme) {
  return Wrap(std::make_unique<fedra::Conv2dLayer>(in_c, out_c, k, stride, pad,
                                                   scheme),
              LayerKind::kConv2d);
}

LayerPtr Dense(int in, int out, Scheme scheme) {
  return Wrap(std::make_unique<fedra::DenseLayer>(in, out, scheme),
              LayerKind::kDense);
}

LayerPtr Act(Activation kind) {
  return Wrap(std::make_unique<fedra::ActivationLayer>(kind),
              LayerKind::kOther);
}

LayerPtr AvgPool2() {
  return Wrap(std::make_unique<fedra::Pool2dLayer>(fedra::PoolKind::kAvg, 2, 2),
              LayerKind::kPool);
}

LayerPtr BatchNorm(int channels) {
  return Wrap(std::make_unique<fedra::BatchNorm2dLayer>(channels),
              LayerKind::kBatchNorm);
}

/// fedra::DenseBlockLayer rebuilt from traced parts: each sub-layer is
/// BN-ReLU-Conv3x3(growth) over the running channel concatenation. Wrapped
/// as an nn.other layer, its self time is the concatenation / slicing work
/// between sub-layers.
class DenseBlock : public fedra::Layer {
 public:
  DenseBlock(int in_channels, int growth, int num_layers)
      : in_channels_(in_channels), growth_(growth), num_layers_(num_layers) {
    for (int i = 0; i < num_layers; ++i) {
      const int ch = in_channels + i * growth;
      auto sub = std::make_unique<fedra::Sequential>();
      sub->Add(BatchNorm(ch));
      sub->Add(Act(Activation::kRelu));
      sub->Add(Conv(ch, growth, 3, 1, 1, Scheme::kHeNormal));
      sublayers_.push_back(std::move(sub));
    }
  }

  int out_channels() const { return in_channels_ + growth_ * num_layers_; }

  std::string name() const override { return "dense_block"; }
  void RegisterParams(fedra::ParameterStore* store) override {
    for (auto& sub : sublayers_) sub->RegisterParams(store);
  }
  void BindOffsets(const fedra::ParameterStore& store) override {
    for (auto& sub : sublayers_) sub->BindOffsets(store);
  }
  void InitParams(fedra::Rng* rng, const fedra::ParameterView& view) override {
    for (auto& sub : sublayers_) sub->InitParams(rng, view);
  }

  Tensor Forward(const Tensor& input, ExecContext& ctx) override {
    Tensor features = input;
    for (auto& sub : sublayers_) {
      Tensor fresh = sub->Forward(features, ctx);
      features = fedra::ConcatChannels(features, fresh);
    }
    return features;
  }

  Tensor Backward(const Tensor& grad_output, ExecContext& ctx) override {
    Tensor grad_accum = grad_output;
    for (int i = num_layers_ - 1; i >= 0; --i) {
      const int prefix = in_channels_ + i * growth_;
      Tensor grad_new =
          fedra::SliceChannels(grad_accum, prefix, prefix + growth_);
      Tensor grad_prefix = fedra::SliceChannels(grad_accum, 0, prefix);
      Tensor grad_sub =
          sublayers_[static_cast<size_t>(i)]->Backward(grad_new, ctx);
      float* gp = grad_prefix.data();
      const float* gs = grad_sub.data();
      for (size_t j = 0; j < grad_prefix.numel(); ++j) {
        gp[j] += gs[j];
      }
      grad_accum = std::move(grad_prefix);
    }
    return grad_accum;
  }

 private:
  int in_channels_;
  int growth_;
  int num_layers_;
  std::vector<LayerPtr> sublayers_;
};

std::unique_ptr<fedra::Model> MakeModel(const char* name,
                                        std::unique_ptr<fedra::Sequential> root) {
  // The root records one metrics.eval_fwd span per eval-mode forward.
  return std::make_unique<fedra::Model>(
      name, std::make_unique<TracedLayer>(std::move(root), SpanName::kCount,
                                          SpanName::kCount,
                                          SpanName::kEvalFwd));
}

}  // namespace

std::unique_ptr<fedra::Model> TracedLeNet5(int in_channels, int image_size,
                                           int num_classes) {
  auto root = std::make_unique<fedra::Sequential>();
  root->Add(Conv(in_channels, 6, 5, 1, 2, Scheme::kGlorotUniform));
  root->Add(Act(Activation::kTanh));
  root->Add(AvgPool2());
  const int half = image_size / 2;
  root->Add(Conv(6, 16, 5, 1, 0, Scheme::kGlorotUniform));
  root->Add(Act(Activation::kTanh));
  root->Add(AvgPool2());
  const int final_hw = (half - 4) / 2;
  const int flat = 16 * final_hw * final_hw;
  root->Add(Wrap(std::make_unique<fedra::FlattenLayer>(), LayerKind::kOther));
  root->Add(Dense(flat, 120, Scheme::kGlorotUniform));
  root->Add(Act(Activation::kTanh));
  root->Add(Dense(120, 84, Scheme::kGlorotUniform));
  root->Add(Act(Activation::kTanh));
  root->Add(Dense(84, num_classes, Scheme::kGlorotUniform));
  return MakeModel("LeNet5", std::move(root));
}

std::unique_ptr<fedra::Model> TracedMlp(int input_dim,
                                        const std::vector<int>& hidden,
                                        int num_classes) {
  auto root = std::make_unique<fedra::Sequential>();
  root->Add(Wrap(std::make_unique<fedra::FlattenLayer>(), LayerKind::kOther));
  int prev = input_dim;
  for (int width : hidden) {
    root->Add(Dense(prev, width, Scheme::kGlorotUniform));
    root->Add(Act(Activation::kRelu));
    prev = width;
  }
  root->Add(Dense(prev, num_classes, Scheme::kGlorotUniform));
  return MakeModel("MLP", std::move(root));
}

std::unique_ptr<fedra::Model> TracedDenseNetLite(int in_channels,
                                                 int image_size,
                                                 int num_classes,
                                                 int layers_per_block,
                                                 int growth) {
  (void)image_size;
  const int stem_c = 2 * growth;
  auto root = std::make_unique<fedra::Sequential>();
  root->Add(Conv(in_channels, stem_c, 3, 1, 1, Scheme::kHeNormal));
  int channels = stem_c;
  for (int block = 0; block < 3; ++block) {
    auto dense =
        std::make_unique<DenseBlock>(channels, growth, layers_per_block);
    channels = dense->out_channels();
    root->Add(Wrap(std::move(dense), LayerKind::kOther));
    root->Add(Wrap(std::make_unique<fedra::DropoutLayer>(0.2f),
                   LayerKind::kOther));
    if (block < 2) {
      const int compressed = channels / 2;
      auto transition = std::make_unique<fedra::Sequential>();
      transition->Add(BatchNorm(channels));
      transition->Add(Act(Activation::kRelu));
      transition->Add(Conv(channels, compressed, 1, 1, 0, Scheme::kHeNormal));
      transition->Add(AvgPool2());
      root->Add(std::move(transition));
      channels = compressed;
    }
  }
  root->Add(BatchNorm(channels));
  root->Add(Act(Activation::kRelu));
  root->Add(Wrap(std::make_unique<fedra::GlobalAvgPoolLayer>(),
                 LayerKind::kPool));
  root->Add(Dense(channels, num_classes, Scheme::kHeNormal));
  return MakeModel(layers_per_block <= 4 ? "DenseNet121" : "DenseNet201",
                   std::move(root));
}

// --------------------------------------------------------- PolicyProbe --

namespace {

uint64_t Participants(const fedra::ClusterContext& ctx) {
  if (ctx.participation == nullptr) {
    return static_cast<uint64_t>(ctx.num_workers());
  }
  uint64_t count = 0;
  for (char up : *ctx.participation) {
    count += up != 0;
  }
  return count;
}

}  // namespace

void PolicyProbe::Initialize(fedra::ClusterContext& ctx) {
  inner_->Initialize(ctx);
}

bool PolicyProbe::MaybeSync(fedra::ClusterContext& ctx) {
  const uint64_t participants = Participants(ctx);
  const uint64_t bytes_before = ctx.network->stats().bytes_model_sync;
  SpanLog* log = ActiveSpans();
  const int span = log != nullptr ? log->Begin(SpanName::kPolicyDecide) : -1;
  const bool synced = inner_->MaybeSync(ctx);
  if (span >= 0) {
    log->End(span, synced ? SpanName::kPolicySync : SpanName::kPolicyDecide);
  }
  ++rounds;
  round_participants += participants;
  if (synced) {
    ++syncs;
    sync_participants += participants;
  }
  sync_bytes += ctx.network->stats().bytes_model_sync - bytes_before;
  if (!synced && audit_theta_ > 0.0) {
    const int64_t audit_start = NowNs();
    Audit(ctx);
    audit_ns += NowNs() - audit_start;
  }
  return synced;
}

void PolicyProbe::Audit(fedra::ClusterContext& ctx) {
  // Exact model variance over the round's participants (paper Eq. 4):
  // Var = (1/n) sum_k ||u_k||^2 - ||u_bar||^2 with u_k = w_k - w_sync.
  const std::vector<int> active = ctx.ActiveWorkers();
  if (active.empty()) {
    return;
  }
  const float* anchor = ctx.sync_params->data();
  std::vector<double> mean(ctx.dim, 0.0);
  double sum_sq = 0.0;
  for (int k : active) {
    const float* w = (*ctx.workers)[static_cast<size_t>(k)].view.params;
    for (size_t i = 0; i < ctx.dim; ++i) {
      const double u = static_cast<double>(w[i]) - anchor[i];
      sum_sq += u * u;
      mean[i] += u;
    }
  }
  const double n = static_cast<double>(active.size());
  double mean_sq = 0.0;
  for (double m : mean) {
    mean_sq += (m / n) * (m / n);
  }
  const double var = sum_sq / n - mean_sq;
  ++audited_rounds;
  rounds_over_theta += var > audit_theta_;
  rounds_over_bound += var > audit_theta_ + audit_epsilon_ * mean_sq;
}

}  // namespace perf
