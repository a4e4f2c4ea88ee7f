// The benchmark's workloads: full FDA training runs to an accuracy target.
//
// Each workload fixes the model, the synthetic task, the trainer and the
// policy; the benchmark seed only changes the generated data and the
// trainer's seeded streams. The library receives only the generated inputs.

#ifndef FEDRA_PERFBENCH_WORKLOADS_H_
#define FEDRA_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/algorithms.h"
#include "core/async_fda.h"
#include "core/trainer.h"
#include "data/synth.h"
#include "nn/model.h"

namespace perf {

struct Workload {
  std::string name;
  /// Sample generator; `seed` is replaced per training run.
  fedra::SynthImageConfig data;
  /// Seed of the task's class prototypes, fixed per workload: the benchmark
  /// seed draws the samples, shards and trainer streams of one fixed task
  /// (as a seed would over a fixed dataset), so seeds do not also change
  /// how hard the task is.
  uint64_t task_seed = 0;
  /// Held-out samples the benchmark evaluates the final model on.
  size_t heldout_samples = 1024;
  /// The library's own model (untraced runs) and its traced mirror.
  fedra::ModelFactory factory;
  fedra::ModelFactory traced_factory;
  fedra::TrainerConfig trainer;
  /// Synchronous trainer: the policy. Async trainer: `async` instead.
  bool use_async = false;
  fedra::AlgorithmConfig algorithm;
  fedra::AsyncFdaConfig async;
  /// Audit the Round Invariant on every round without a sync (traced).
  bool audit_round_invariant = false;
  /// Wall seconds one training run of the timed loop takes on the
  /// development host (4-vCPU Xeon, 4 pool threads), set-up and checks
  /// included; sizes the round (RunsPerRound).
  double run_cost_s = 1.0;
};

/// Training runs in one round of the timed loop: as many as fit in
/// `seconds` on the development host, at least one. Fixed by (workload,
/// seconds), never by the clock, so every run of a seed attempts the same
/// training runs.
int RunsPerRound(const Workload& w, double seconds);

/// Builds workload `name`. `variant` selects a reference configuration
/// for the README figures: "" (the benchmark), "single_worker" (the LeNet
/// task on one worker) or "uncompressed" (the fleet without its codec).
/// Returns false for an unknown name/variant.
bool MakeWorkload(const std::string& name, const std::string& variant,
                  Workload* out);

/// Per-training-run seeds derived from the benchmark seed and the run's
/// index within its round.
struct RunSeeds {
  uint64_t data = 0;
  uint64_t trainer = 0;
  uint64_t heldout = 0;
};
RunSeeds DeriveSeeds(uint64_t bench_seed, int run_index);

}  // namespace perf

#endif  // FEDRA_PERFBENCH_WORKLOADS_H_
