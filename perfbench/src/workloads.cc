#include "workloads.h"

#include <algorithm>

#include "nn/zoo.h"
#include "sim/topology_tree.h"
#include "trace.h"

namespace perf {

namespace {

uint64_t Mix(uint64_t x) {
  // SplitMix64 finalizer: decorrelates neighbouring seeds.
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// LeNet-5 on the harder synth-MNIST 16x16 (noise 0.45, deformation 0.5),
/// 8 resident workers, Adam, IID shards, SketchFDA 5x250, flat HPC network.
/// Compute-bound: conv, avg-pool and Adam carry most of the wall time.
void LeNetSketchFda(Workload* w) {
  w->name = "lenet_sketchfda";
  w->data = fedra::MnistLikeConfig();
  w->data.image_size = 16;
  w->data.num_train = 1024;
  w->data.num_test = 512;
  w->data.noise_stddev = 0.45f;
  w->data.deform_stddev = 0.5f;
  w->task_seed = 42;
  w->factory = [] { return fedra::zoo::LeNet5(1, 16, 10); };
  w->traced_factory = [] { return TracedLeNet5(1, 16, 10); };
  fedra::TrainerConfig& t = w->trainer;
  t.num_workers = 8;
  t.batch_size = 8;
  t.local_optimizer = fedra::OptimizerConfig::Adam(0.002f);
  t.partition = fedra::PartitionConfig::Iid();
  t.network = fedra::NetworkModel::Hpc();
  t.allreduce = fedra::AllReduceAlgorithm::kFlat;
  t.accuracy_target = 0.85;
  t.max_steps = 800;
  t.eval_every_steps = 10;
  t.eval_subset = 256;
  t.parallel_workers = true;
  w->algorithm = fedra::AlgorithmConfig::SketchFda(4.0);
  w->algorithm.monitor.sketch_rows = 5;
  w->algorithm.monitor.sketch_cols = 250;
  w->audit_round_invariant = true;
  w->run_cost_s = 1.45;
}

/// 10^5-client fleet through 64 cohort slots: MLP (d = 4,282), SGD,
/// half-sorted shards, availability-weighted rotation every 20 rounds,
/// Markov churn (MTTF 10 / MTTR 2.5 rounds: ~20% down), Federated()
/// network, LinearFDA with a top-5% + 8-bit codec and paged error feedback.
/// Compute is small; codec, fault chains, paging and subset collectives
/// carry the time.
void FleetCodecChurn(Workload* w) {
  w->name = "fleet_codec_churn";
  w->data = fedra::MnistLikeConfig();
  w->data.image_size = 16;
  w->data.num_train = 2048;
  w->data.num_test = 512;
  w->task_seed = 23;
  w->factory = [] { return fedra::zoo::Mlp(16 * 16, {16}, 10); };
  w->traced_factory = [] { return TracedMlp(16 * 16, {16}, 10); };
  fedra::TrainerConfig& t = w->trainer;
  t.num_workers = 64;
  t.population = 100000;
  t.cohort_size = 64;
  t.cohort_steps = 20;
  t.cohort_schedule = fedra::CohortScheduleKind::kAvailability;
  t.batch_size = 8;
  t.local_optimizer = fedra::OptimizerConfig::Sgd(0.1f);
  t.partition = fedra::PartitionConfig::SortedFraction(0.5);
  t.network = fedra::NetworkModel::Federated();
  t.faults = fedra::FaultConfig::Churn(10.0, 2.5);
  t.sync_compression = fedra::CompressionConfig::TopKQuantize(0.05, 8);
  t.accuracy_target = 0.80;
  t.max_steps = 600;
  t.eval_every_steps = 10;
  t.eval_subset = 512;
  t.parallel_workers = true;
  w->algorithm = fedra::AlgorithmConfig::LinearFda(0.15);
  w->run_cost_s = 1.2;
}

/// DenseNet121-lite (BatchNorm, dropout, 1x1/3x3 conv, avg-pool
/// transitions) on synth-CIFAR 8x8, SGD with Nesterov momentum, async FDA
/// over a 3-tier device -> site -> cloud tree with a heavy-tailed
/// straggler fleet. The only workload through core/async_fda and the
/// tree's per-hop billing.
void DenseNetAsyncTree(Workload* w) {
  w->name = "densenet_async_tree";
  w->data = fedra::CifarLikeConfig();
  w->data.image_size = 8;
  w->data.num_train = 1024;
  w->data.num_test = 512;
  w->data.noise_stddev = 0.55f;
  w->data.deform_stddev = 1.2f;
  w->data.label_noise = 0.06f;
  w->task_seed = 1337;
  w->factory = [] { return fedra::zoo::DenseNetLite(3, 8, 10, 3, 6); };
  w->traced_factory = [] { return TracedDenseNetLite(3, 8, 10, 3, 6); };
  fedra::TrainerConfig& t = w->trainer;
  t.num_workers = 8;
  t.batch_size = 16;
  t.local_optimizer = fedra::OptimizerConfig::SgdMomentum(
      0.1f, 0.9f, /*nesterov=*/true, /*weight_decay=*/1e-4f);
  t.partition = fedra::PartitionConfig::Iid();
  t.topology = fedra::TopologyTree::DeviceSiteCloud(/*sites=*/2,
                                                    /*groups_per_site=*/2);
  fedra::StragglerModel stragglers = fedra::StragglerModel::Heavy(0.01);
  stragglers.lognormal_sigma = 0.5;
  t.straggler = stragglers;
  t.accuracy_target = 0.75;
  t.max_steps = 600;
  t.eval_every_steps = 10;
  t.eval_subset = 256;
  w->use_async = true;
  w->async.theta = 4.0;
  w->async.monitor.kind = fedra::MonitorKind::kSketch;
  w->async.max_total_worker_steps = t.max_steps * 8;
  w->heldout_samples = 512;
  w->run_cost_s = 3.7;
}

}  // namespace

bool MakeWorkload(const std::string& name, const std::string& variant,
                  Workload* out) {
  *out = Workload();
  if (name == "lenet_sketchfda") {
    LeNetSketchFda(out);
    if (variant == "single_worker") {
      out->trainer.num_workers = 1;
      out->trainer.parallel_workers = false;
      out->algorithm = fedra::AlgorithmConfig::Synchronous();
      out->audit_round_invariant = false;
      return true;
    }
  } else if (name == "fleet_codec_churn") {
    FleetCodecChurn(out);
    if (variant == "uncompressed") {
      out->trainer.sync_compression = fedra::CompressionConfig::None();
      return true;
    }
  } else if (name == "densenet_async_tree") {
    DenseNetAsyncTree(out);
  } else {
    return false;
  }
  return variant.empty();
}

int RunsPerRound(const Workload& w, double seconds) {
  return std::max(1, static_cast<int>(seconds / w.run_cost_s));
}

RunSeeds DeriveSeeds(uint64_t bench_seed, int run_index) {
  const uint64_t base =
      Mix(bench_seed * 0x100000001b3ULL + static_cast<uint64_t>(run_index));
  RunSeeds seeds;
  seeds.data = Mix(base ^ 0xda7aULL);
  seeds.trainer = Mix(base ^ 0x7ea1ULL);
  seeds.heldout = Mix(base ^ 0x4e1dULL);
  return seeds;
}

}  // namespace perf
