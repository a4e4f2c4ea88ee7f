// fda_perf: runs one benchmark workload as full FDA training runs and
// prints one JSON line per training run plus a closing summary line.
// perfbench/run.py drives it, aggregates the lines and checks the outputs.
//
//   fda_perf --workload NAME --seed N [--mode timed|once|traced]
//            [--seconds S] [--run-index I] [--threads T]
//            [--variant V] [--spans PATH]
//
// timed   one round: training runs 0..R-1, R fixed by the workload and
//         --seconds (RunsPerRound), so the same seed and --seconds always
//         attempt the same runs.
// once    one untraced training run (index --run-index).
// traced  one traced training run (index --run-index): layer spans, policy
//         spans, replayed per-call costs, written spans (--spans).

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "core/async_fda.h"
#include "core/client_store.h"
#include "core/compression.h"
#include "core/trainer.h"
#include "core/variance_monitor.h"
#include "data/synth.h"
#include "metrics/evaluation.h"
#include "opt/optimizer.h"
#include "sim/collectives.h"
#include "sim/fault_model.h"
#include "tensor/simd_dispatch.h"
#include "trace.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perf {
namespace {

struct Options {
  std::string workload;
  std::string variant;
  std::string mode = "timed";
  std::string spans_path;
  uint64_t seed = 1;
  double seconds = 10.0;
  int run_index = 0;
  int threads = 0;  // 0: hardware concurrency
};

/// Everything one training run reports. Deterministic outputs (steps,
/// bytes, syncs, simulated seconds, counts) must repeat exactly for a seed.
struct RunRecord {
  int run_index = 0;
  std::string error;  // non-empty: the run failed with this Status
  bool reached = false;
  double data_s = 0.0;
  double setup_s = 0.0;    // until Run is called
  double wall_s = 0.0;     // Run, less its evaluations after the target
  uint64_t samples = 0;    // training samples processed to target
  uint64_t steps = 0;
  uint64_t bytes = 0;
  uint64_t syncs = 0;
  double sim_s = 0.0;
  double final_accuracy = 0.0;  // the library's own final evaluation
  double heldout_accuracy = 0.0;
  size_t dim = 0;
  size_t state_size = 0;
  uint64_t rounds = 0;
  uint64_t round_participants = 0;
  uint64_t sync_participants = 0;
  uint64_t policy_sync_bytes = 0;
  uint64_t worker_steps = 0;
  uint64_t rejoins = 0;
  fedra::CommStats comm;
  // Round Invariant audit (traced runs of audited workloads).
  uint64_t audited_rounds = 0;
  uint64_t rounds_over_theta = 0;
  uint64_t rounds_over_bound = 0;
  double audit_s = 0.0;
  std::map<std::string, double> layers;  // traced runs only
};

// ------------------------------------------------------------- helpers --

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double value) {
    return Raw(key, JsonNumber(value));
  }
  JsonObject& Add(const std::string& key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Add(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Add(const std::string& key, const std::string& value) {
    return Raw(key, JsonString(value));
  }
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + JsonString(key) + ": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

/// The benchmark's own accuracy loop: forward in eval mode, argmax, count.
double HeldoutAccuracy(fedra::Model* model, const fedra::Dataset& heldout) {
  const size_t batch = 256;
  size_t correct = 0;
  for (size_t begin = 0; begin < heldout.size(); begin += batch) {
    const size_t end = std::min(heldout.size(), begin + batch);
    std::vector<size_t> indices(end - begin);
    for (size_t i = 0; i < indices.size(); ++i) {
      indices[i] = begin + i;
    }
    const fedra::Tensor logits =
        model->Forward(heldout.GatherImages(indices), /*training=*/false);
    const std::vector<int> labels = heldout.GatherLabels(indices);
    const int classes = logits.dim(1);
    for (size_t i = 0; i < indices.size(); ++i) {
      const float* row = logits.data() + i * static_cast<size_t>(classes);
      const int predicted =
          static_cast<int>(std::max_element(row, row + classes) - row);
      correct += predicted == labels[i];
    }
  }
  return static_cast<double>(correct) / static_cast<double>(heldout.size());
}

/// Seconds of the evaluations a trainer's Run makes after it has hit the
/// target, replayed on the same model and data: the full test set, and for
/// the synchronous trainer a train subset of up to 2,048 samples.
double TrailingEvalSeconds(fedra::Model* model, const fedra::Dataset& train,
                           const fedra::Dataset& test, bool sync_trainer,
                           uint64_t trainer_seed) {
  const int64_t start = NowNs();
  fedra::Evaluate(model, test);
  if (sync_trainer) {
    fedra::EvaluateSubset(model, train, std::min<size_t>(train.size(), 2048),
                          trainer_seed ^ 0x51ULL);
  }
  return Seconds(NowNs() - start);
}

/// Median per-call seconds of `call`: batches of calls of at least 20 ms,
/// five batches.
double PerCallSeconds(const std::function<void()>& call) {
  call();  // warm-up: lazy buffers, caches
  std::vector<double> per_call;
  size_t reps = 1;
  while (per_call.size() < 5) {
    const int64_t start = NowNs();
    for (size_t i = 0; i < reps; ++i) {
      call();
    }
    const double elapsed = Seconds(NowNs() - start);
    if (elapsed < 0.02 && per_call.empty()) {
      reps *= 2;
      continue;
    }
    per_call.push_back(elapsed / static_cast<double>(reps));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[per_call.size() / 2];
}

std::vector<float> RandomVector(size_t n, float scale, uint64_t seed) {
  fedra::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) {
    x = rng.NextGaussian(0.0f, scale);
  }
  return v;
}

// ------------------------------------------------------------- replays --

/// Per-call costs of the library calls the benchmark cannot wrap, replayed
/// at the workload's shapes; multiplied by the run's counts they give the
/// replayed per-layer metrics.
void AddReplayedLayers(const Workload& w, RunRecord* r) {
  const size_t d = r->dim;
  const fedra::TrainerConfig& cfg = w.trainer;
  const int k = cfg.num_workers;
  std::vector<float> params = RandomVector(d, 0.05f, 1);
  std::vector<float> grads = RandomVector(d, 0.01f, 2);
  std::vector<float> anchor = RandomVector(d, 0.05f, 3);
  std::vector<float> drift(d);
  for (size_t i = 0; i < d; ++i) {
    drift[i] = params[i] - anchor[i];
  }
  auto& layers = r->layers;

  {
    auto opt = fedra::Optimizer::Create(cfg.local_optimizer, d);
    layers["opt.step_s"] =
        PerCallSeconds([&] { opt->Step(params.data(), grads.data(), d); }) *
        static_cast<double>(r->worker_steps);
  }

  const fedra::MonitorConfig& monitor_cfg =
      w.use_async ? w.async.monitor : w.algorithm.monitor;
  const bool fda = w.use_async ||
                   w.algorithm.algorithm == fedra::Algorithm::kSketchFda ||
                   w.algorithm.algorithm == fedra::Algorithm::kLinearFda;
  std::unique_ptr<fedra::VarianceMonitor> monitor;
  if (fda) {
    auto made = fedra::MakeVarianceMonitor(monitor_cfg, d);
    FEDRA_CHECK_OK(made.status());
    monitor = std::move(made).value();
  }
  // Local-state computations: one per participant per round (synchronous
  // policy) or one per worker step (async coordinator uploads).
  const uint64_t state_calls =
      w.use_async ? r->worker_steps : r->round_participants;
  layers["sketch.local_state_s"] = 0.0;
  if (monitor != nullptr &&
      monitor_cfg.kind == fedra::MonitorKind::kSketch) {
    std::vector<float> state(monitor->StateSize());
    layers["sketch.local_state_s"] =
        PerCallSeconds([&] {
          monitor->ComputeDriftAndState(params.data(), anchor.data(),
                                        drift.data(), state.data());
        }) *
        static_cast<double>(state_calls);
  }

  layers["core.codec.mask_preview_s"] = 0.0;
  layers["core.codec.encode_s"] = 0.0;
  if (cfg.sync_compression.enabled()) {
    fedra::SyncCompressor codec(cfg.sync_compression, d, 1);
    std::vector<float> payload(d);
    if (codec.has_mask()) {
      layers["core.codec.mask_preview_s"] =
          PerCallSeconds([&] { codec.MaskPreview(drift.data(), d); }) *
          static_cast<double>(r->round_participants);
    }
    layers["core.codec.encode_s"] =
        PerCallSeconds([&] {
          std::copy(drift.begin(), drift.end(), payload.begin());
          codec.CompressInPlace(0, payload.data(), d);
        }) *
        static_cast<double>(r->sync_participants);
  }

  const uint64_t swaps = r->comm.check_in_syncs;
  layers["core.store.swaps"] = static_cast<double>(swaps);
  layers["core.store.page_s"] = 0.0;
  if (cfg.fleet_enabled() && monitor != nullptr) {
    fedra::ClientStoreConfig store_cfg;
    store_cfg.population = cfg.population;
    store_cfg.cohort_slots = k;
    store_cfg.dim = d;
    store_cfg.opt_state_slots = cfg.local_optimizer.StateSlots();
    store_cfg.seed = 1;
    fedra::ClientStateStore store(store_cfg);
    store.SetStateSize(monitor->StateSize());
    const bool ef = cfg.sync_compression.enabled() &&
                    cfg.sync_compression.error_feedback;
    store.SetResidualSize(ef ? d : 0);
    std::vector<float> opt_state(d * store_cfg.opt_state_slots);
    std::vector<float> state(monitor->StateSize());
    std::vector<float> residual(ef ? d : 0);
    const fedra::Rng rng(7);
    // One swap = a departing client's check-out (page stored) plus an
    // arriving client's check-in (its stored page restored).
    uint32_t resident = 0;
    uint32_t parked = 1;
    store.CheckIn(resident, anchor.data(), params.data(), opt_state.data());
    store.CheckIn(parked, anchor.data(), params.data(), opt_state.data());
    store.CheckOut(parked, params.data(), anchor.data(), opt_state.data(), rng,
                   rng, 1, 20, monitor.get(), ef ? residual.data() : nullptr);
    layers["core.store.page_s"] =
        PerCallSeconds([&] {
          store.CheckOut(resident, params.data(), anchor.data(),
                         opt_state.data(), rng, rng, 1, 20, monitor.get(),
                         ef ? residual.data() : nullptr);
          store.CheckIn(parked, anchor.data(), params.data(),
                        opt_state.data(), state.data(),
                        ef ? residual.data() : nullptr);
          std::swap(resident, parked);
        }) *
        static_cast<double>(swaps);
  }

  layers["sim.fault.round_s"] = 0.0;
  if (cfg.faults.enabled() && !w.use_async) {
    const int entities =
        cfg.fleet_enabled() ? static_cast<int>(cfg.population) : k;
    std::vector<int> links(static_cast<size_t>(entities));
    for (int c = 0; c < entities; ++c) {
      links[static_cast<size_t>(c)] = c;
    }
    fedra::FaultInjector injector(cfg.faults, entities, 5, links, entities);
    layers["sim.fault.round_s"] =
        PerCallSeconds([&] { injector.BeginRound(); }) *
        static_cast<double>(r->steps);
  }

  {
    fedra::SimNetwork network = fedra::MakeSimNetwork(cfg);
    std::vector<std::vector<float>> models(static_cast<size_t>(k), params);
    std::vector<float*> model_ptrs;
    for (auto& m : models) model_ptrs.push_back(m.data());
    const double model_reduce = PerCallSeconds([&] {
      network.AllReduceAverage(model_ptrs, d,
                               fedra::TrafficClass::kModelSync);
    });
    double state_reduce = 0.0;
    uint64_t state_reduces = 0;
    if (!w.use_async && r->state_size > 0) {
      std::vector<std::vector<float>> states(
          static_cast<size_t>(k), std::vector<float>(r->state_size, 0.5f));
      std::vector<float*> state_ptrs;
      for (auto& s : states) state_ptrs.push_back(s.data());
      state_reduce = PerCallSeconds([&] {
        network.AllReduceAverage(state_ptrs, r->state_size,
                                 fedra::TrafficClass::kLocalState);
      });
      state_reduces = r->comm.allreduce_calls - r->comm.model_sync_count;
    }
    layers["sim.reduce_s"] =
        model_reduce * static_cast<double>(r->comm.model_sync_count) +
        state_reduce * static_cast<double>(state_reduces);
  }
}

/// Fills r->layers from the span log, the probe counts, the CommStats and
/// the replays.
void FillLayers(const Workload& w, const SpanLog& log, int64_t run_ns,
                RunRecord* r) {
  auto& layers = r->layers;
  const std::vector<double> self = log.SelfSeconds();
  auto self_of = [&](SpanName name) {
    return self[static_cast<size_t>(name)];
  };
  const char* kinds[] = {"conv2d", "pool", "dense", "batchnorm", "other"};
  const SpanName fwd[] = {SpanName::kConv2dFwd, SpanName::kPoolFwd,
                          SpanName::kDenseFwd, SpanName::kBatchNormFwd,
                          SpanName::kOtherFwd};
  const SpanName bwd[] = {SpanName::kConv2dBwd, SpanName::kPoolBwd,
                          SpanName::kDenseBwd, SpanName::kBatchNormBwd,
                          SpanName::kOtherBwd};
  for (int i = 0; i < 5; ++i) {
    layers[std::string("nn.") + kinds[i] + ".fwd_s"] = self_of(fwd[i]);
    layers[std::string("nn.") + kinds[i] + ".bwd_s"] = self_of(bwd[i]);
  }
  layers["metrics.eval_fwd_s"] = self_of(SpanName::kEvalFwd);
  layers["core.policy.decide_s"] = self_of(SpanName::kPolicyDecide);
  layers["core.policy.sync_s"] = self_of(SpanName::kPolicySync);
  layers["core.policy.rounds"] = static_cast<double>(r->rounds);
  layers["core.policy.syncs"] = static_cast<double>(r->syncs);
  layers["core.async.worker_steps"] =
      w.use_async ? static_cast<double>(r->worker_steps) : 0.0;
  layers["core.monitor.rounds_over_theta"] =
      static_cast<double>(r->rounds_over_theta);

  AddReplayedLayers(w, r);

  const fedra::CommStats& c = r->comm;
  const double mb = 1e-6;
  layers["sim.bytes.local_state_mb"] =
      static_cast<double>(c.bytes_local_state) * mb;
  layers["sim.bytes.model_sync_mb"] =
      static_cast<double>(c.bytes_model_sync - c.bytes_model_downlink) * mb;
  layers["sim.bytes.downlink_mb"] =
      static_cast<double>(c.bytes_model_downlink) * mb;
  layers["sim.calls.allreduce"] = static_cast<double>(c.allreduce_calls);
  layers["sim.calls.p2p"] = static_cast<double>(c.p2p_calls);
  layers["sim.calls.subtree"] = static_cast<double>(c.subtree_allreduce_calls);
  layers["sim.comm_s.local_state"] = c.seconds_local_state;
  layers["sim.comm_s.model_sync"] = c.seconds_model_sync;
  for (size_t depth = 0; depth < 3; ++depth) {
    layers["sim.comm_s.depth" + std::to_string(depth)] =
        c.SecondsAtDepth(depth);
  }
  layers["sim.fault.rejoins"] = static_cast<double>(r->rejoins);
  layers["data.synth_s"] = r->data_s;

  // Run() time outside every span and every replayed call that executes
  // outside a span. Synchronous trainer: monitor state, codec and reduces
  // run inside MaybeSync (policy spans). Async trainer: they run in the
  // event loop itself.
  double other = self_of(SpanName::kRun) - layers["opt.step_s"] -
                 layers["core.store.page_s"] - layers["sim.fault.round_s"] -
                 r->audit_s;
  if (w.use_async) {
    other -= layers["sketch.local_state_s"] + layers["sim.reduce_s"];
  }
  layers["core.trainer.other_s"] = other;
  layers["core.trainer.run_s"] = Seconds(run_ns);
  layers["trace.spans"] = static_cast<double>(log.size());
  layers["trace.audit_s"] = r->audit_s;
}

// ------------------------------------------------------ training runs --

RunRecord TrainOnce(const Workload& w, uint64_t bench_seed, int run_index,
                    bool traced, const std::string& spans_path) {
  RunRecord r;
  r.run_index = run_index;
  const RunSeeds seeds = DeriveSeeds(bench_seed, run_index);
  SpanLog log;
  std::optional<TracingScope> spans;
  if (traced) {
    spans.emplace(&log);
  }

  const int64_t t0 = NowNs();
  fedra::SynthImageConfig data_cfg = w.data;
  data_cfg.seed = seeds.data;
  auto data = fedra::GenerateBlendedSynthImages(data_cfg, w.task_seed, 1.0f);
  if (!data.ok()) {
    r.error = data.status().ToString();
    return r;
  }
  const int64_t t_data = NowNs();
  r.data_s = Seconds(t_data - t0);

  fedra::TrainerConfig cfg = w.trainer;
  cfg.seed = seeds.trainer;
  fedra::Model* model = nullptr;
  const fedra::ModelFactory& make = traced ? w.traced_factory : w.factory;
  fedra::ModelFactory factory = [&make, &model] {
    auto built = make();
    model = built.get();
    return built;
  };

  // The trainers own the model the held-out check evaluates afterwards.
  std::unique_ptr<fedra::DistributedTrainer> sync_trainer;
  std::unique_ptr<fedra::AsyncFdaTrainer> async_trainer;
  fedra::TrainResult result;
  int64_t run_ns = 0;
  if (!w.use_async) {
    sync_trainer = std::make_unique<fedra::DistributedTrainer>(
        factory, data->train, data->test, cfg);
    fedra::DistributedTrainer& trainer = *sync_trainer;
    r.dim = trainer.model_dim();
    auto policy = fedra::MakeSyncPolicy(w.algorithm, r.dim);
    if (!policy.ok()) {
      r.error = policy.status().ToString();
      return r;
    }
    const double epsilon = std::sqrt(
        2.0 / static_cast<double>(w.algorithm.monitor.sketch_cols));
    PolicyProbe probe(policy->get(),
                      traced && w.audit_round_invariant ? w.algorithm.theta
                                                        : 0.0,
                      epsilon);
    const int run_span = traced ? log.Begin(SpanName::kRun) : -1;
    log.SetRoot(run_span);
    const int64_t run_start = NowNs();
    r.setup_s = Seconds(run_start - t0);
    auto run = trainer.Run(&probe);
    run_ns = NowNs() - run_start;
    if (traced) {
      log.End(run_span);
    }
    if (!run.ok()) {
      r.error = run.status().ToString();
      return r;
    }
    result = std::move(run).value();
    r.rounds = probe.rounds;
    r.round_participants = probe.round_participants;
    r.sync_participants = probe.sync_participants;
    r.policy_sync_bytes = probe.sync_bytes;
    r.worker_steps = probe.round_participants;
    r.audited_rounds = probe.audited_rounds;
    r.rounds_over_theta = probe.rounds_over_theta;
    r.rounds_over_bound = probe.rounds_over_bound;
    r.audit_s = Seconds(probe.audit_ns);
    if (cfg.num_workers > 1 && (w.algorithm.algorithm ==
                                    fedra::Algorithm::kSketchFda ||
                                w.algorithm.algorithm ==
                                    fedra::Algorithm::kLinearFda)) {
      auto monitor = fedra::MakeVarianceMonitor(w.algorithm.monitor, r.dim);
      FEDRA_CHECK_OK(monitor.status());
      r.state_size = (*monitor)->StateSize();
    }
  } else {
    async_trainer = std::make_unique<fedra::AsyncFdaTrainer>(
        factory, data->train, data->test, cfg, w.async);
    fedra::AsyncFdaTrainer& trainer = *async_trainer;
    const int64_t run_start = NowNs();
    r.setup_s = Seconds(run_start - t0);
    const int run_span = traced ? log.Begin(SpanName::kRun) : -1;
    log.SetRoot(run_span);
    auto run = trainer.Run();
    run_ns = NowNs() - run_start;
    if (traced) {
      log.End(run_span);
    }
    if (!run.ok()) {
      r.error = run.status().ToString();
      return r;
    }
    result = run->base;
    r.dim = model->num_params();
    r.worker_steps = run->total_worker_steps;
    r.rounds = run->total_worker_steps;
    auto monitor = fedra::MakeVarianceMonitor(w.async.monitor, r.dim);
    FEDRA_CHECK_OK(monitor.status());
    r.state_size = (*monitor)->StateSize();
  }
  spans.reset();
  // Both trainers time the same span: the Run call (its own set-up, every
  // step and every target probe up to the one that hits) without the
  // evaluations Run makes once the target is known.
  r.wall_s = Seconds(run_ns) - TrailingEvalSeconds(model, data->train,
                                                   data->test, !w.use_async,
                                                   cfg.seed);
  r.reached = result.reached_target;
  r.steps = result.steps_to_target;
  r.bytes = result.bytes_to_target;
  r.syncs = result.syncs_to_target;
  r.sim_s = result.sim_seconds_to_target;
  r.final_accuracy = result.final_test_accuracy;
  r.rejoins = result.rejoin_count;
  r.comm = result.comm;
  r.samples = r.worker_steps * static_cast<uint64_t>(cfg.batch_size);

  // Held-out set: the same task's class prototypes, samples drawn from a
  // separate seed.
  fedra::SynthImageConfig heldout_cfg = w.data;
  heldout_cfg.seed = seeds.heldout;
  heldout_cfg.num_train = 1;
  heldout_cfg.num_test = w.heldout_samples;
  auto heldout =
      fedra::GenerateBlendedSynthImages(heldout_cfg, w.task_seed, 1.0f);
  FEDRA_CHECK_OK(heldout.status());
  r.heldout_accuracy = HeldoutAccuracy(model, heldout->test);

  if (traced) {
    FillLayers(w, log, run_ns, &r);
    if (!spans_path.empty() && !log.WriteCsv(spans_path)) {
      std::fprintf(stderr, "fda_perf: cannot write spans to %s\n",
                   spans_path.c_str());
    }
  }
  return r;
}

std::string RecordJson(const RunRecord& r) {
  JsonObject o;
  o.Add("run_index", static_cast<uint64_t>(r.run_index));
  if (!r.error.empty()) {
    o.Add("error", r.error);
    return JsonObject().Raw("run", o.str()).str();
  }
  o.Add("reached", r.reached)
      .Add("setup_s", r.setup_s)
      .Add("wall_s", r.wall_s)
      .Add("samples", r.samples)
      .Add("steps", r.steps)
      .Add("bytes", r.bytes)
      .Add("syncs", r.syncs)
      .Add("sim_s", r.sim_s)
      .Add("final_accuracy", r.final_accuracy)
      .Add("heldout_accuracy", r.heldout_accuracy)
      .Add("dim", static_cast<uint64_t>(r.dim))
      .Add("rounds", r.rounds)
      .Add("round_participants", r.round_participants)
      .Add("sync_participants", r.sync_participants)
      .Add("policy_sync_bytes", r.policy_sync_bytes)
      .Add("bytes_model_sync", r.comm.bytes_model_sync)
      .Add("bytes_model_downlink", r.comm.bytes_model_downlink)
      .Add("bytes_total", r.comm.bytes_total)
      .Add("audited_rounds", r.audited_rounds)
      .Add("rounds_over_theta", r.rounds_over_theta)
      .Add("rounds_over_bound", r.rounds_over_bound);
  if (!r.layers.empty()) {
    JsonObject layers;
    for (const auto& [name, value] : r.layers) {
      layers.Add(name, value);
    }
    o.Raw("layers", layers.str());
  }
  return JsonObject().Raw("run", o.str()).str();
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "fda_perf: %s needs a value\n", arg.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--variant") {
      opt->variant = value;
    } else if (arg == "--mode") {
      opt->mode = value;
    } else if (arg == "--spans") {
      opt->spans_path = value;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--run-index") {
      opt->run_index = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (arg == "--threads") {
      opt->threads = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else {
      std::fprintf(stderr, "fda_perf: unknown flag %s\n", arg.c_str());
      return false;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "fda_perf: bad value for %s: %s\n", arg.c_str(),
                   value.c_str());
      return false;
    }
  }
  if (opt->mode != "timed" && opt->mode != "once" && opt->mode != "traced") {
    std::fprintf(stderr, "fda_perf: unknown mode %s\n", opt->mode.c_str());
    return false;
  }
  if (opt->threads < 0 || opt->threads > 256 || opt->seconds < 0.0 ||
      opt->run_index < 0) {
    std::fprintf(stderr, "fda_perf: out-of-range --threads/--seconds/"
                         "--run-index\n");
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    return 2;
  }
  Workload w;
  if (!MakeWorkload(opt.workload, opt.variant, &w)) {
    std::fprintf(stderr, "fda_perf: unknown workload/variant '%s'/'%s'\n",
                 opt.workload.c_str(), opt.variant.c_str());
    return 2;
  }
  fedra::SetGlobalThreadPoolThreads(static_cast<size_t>(opt.threads));
  const size_t pool_threads = fedra::GlobalThreadPool().num_threads();

  const int64_t start = NowNs();
  if (opt.mode == "timed") {
    const int runs = RunsPerRound(w, opt.seconds);
    for (int i = 0; i < runs; ++i) {
      std::printf("%s\n",
                  RecordJson(TrainOnce(w, opt.seed, i, false, "")).c_str());
      std::fflush(stdout);
    }
  } else {
    const bool traced = opt.mode == "traced";
    std::printf("%s\n", RecordJson(TrainOnce(w, opt.seed, opt.run_index,
                                             traced, opt.spans_path))
                            .c_str());
  }
  JsonObject summary;
  summary.Add("workload", w.name)
      .Add("mode", opt.mode)
      .Add("peak_rss_mb", PeakRssMb())
      .Add("elapsed_s", Seconds(NowNs() - start))
      .Add("pool_threads", static_cast<uint64_t>(pool_threads))
      .Add("simd", std::string(fedra::simd::LevelName(
                       fedra::simd::ActiveLevel())))
      .Add("accuracy_target", w.trainer.accuracy_target);
  std::printf("%s\n", JsonObject().Raw("summary", summary.str()).str().c_str());
  return 0;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) { return perf::Main(argc, argv); }
