#pragma once

// Shared types of the training-step benchmark: run options, the outcome a
// workload returns (metrics, correctness checks, step accounting) and small
// statistics/clock helpers.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace stepbench {

/// Model weights and the synthetic corpus's grammar belong to a workload's
/// definition and stay fixed; --seed draws the data the steps train on.
/// (Seeding them too would spread final_loss across seeds by ~10% with no
/// program change behind it.)
inline constexpr std::uint64_t kModelSeed = 2024;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch space (checkpoints, telemetry files)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run produced. `attempted` counts every training step
/// the invocation ran (set-ups, timed window, checks); `failed` the ones
/// that threw, had a non-finite loss, were replayed or restarted, or belong
/// to a failed correctness check.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines, printed first

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  /// Records one correctness check; a failure marks `failed_steps` steps
  /// failed and the whole run incorrect.
  void check(bool ok, const std::string& what, std::uint64_t failed_steps);
  void note(const std::string& line) { notes.push_back(line); }
};

Outcome run_gpt_seq128(const Options& options);
Outcome run_mlp_4d(const Options& options);
Outcome run_gpt_resilient(const Options& options);

// --- statistics -----------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);

/// Step statistics are taken per block of consecutive steps, and the median
/// over the blocks is reported. A stretch in which other load on the host
/// slows this guest (such stretches last from a second to tens of seconds)
/// then moves only the blocks it falls in, not the run's figure, while it
/// covers less than half of the run.
///
/// The [begin, end) blocks `n` time-ordered samples are split into: about
/// kBlocks blocks of at least kMinBlockSteps samples each (one block when
/// there are fewer), the remainder going to the last block.
inline constexpr std::size_t kBlocks = 10;
inline constexpr std::size_t kMinBlockSteps = 20;
std::vector<std::pair<std::size_t, std::size_t>> step_blocks(std::size_t n);
/// Median over step_blocks of each block's q-quantile of `samples`.
double block_quantile(const std::vector<double>& samples, double q);
/// Median over step_blocks of each block's rate: `per_step` units per step
/// over the block's wall time, from the steps' end stamps (seconds since the
/// window opened, in step order).
double block_rate(const std::vector<double>& end_s, double per_step);

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double to_mb(double bytes) { return bytes / (1024.0 * 1024.0); }

/// "12.3456" with `digits` decimals, for note lines.
std::string fmt(double value, int digits = 4);

}  // namespace stepbench
