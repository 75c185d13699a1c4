// mlp_4d: TensorParallelMLP forward / backward / sync_gradients_data_parallel
// / apply_sgd, 4 layers of width 512, 256 input rows per step, on a 2x1x1x1
// grid (X = 2 tensor parallel: the Eq. 3/4 all-reduces), OAR/ORS/OAG on,
// tiled GEMM backend. The loss is the mean-square output; its gradient drives
// the backward pass.
//
// Two rank threads, not the four of a 2x1x2x1 grid: four ranks plus their
// comm lanes fill every vCPU of a 4-vCPU host, and their step times then
// spread by up to 0.86 (IQR/median over ten seeds) from run to run. Z sharding
// is measured on the GPT workloads instead. 256 rows, not 64: at 64 a step is
// mostly hand-offs between rank and comm-lane threads, and two competing busy
// threads on the host (5 ms on, 5 ms off) slowed its step p50 by 29% and p90
// by 35%; at 256 rows, by 5% and 7%.

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>

#include "axonn/base/arena.hpp"
#include "axonn/base/rng.hpp"
#include "axonn/base/trace.hpp"
#include "axonn/comm/thread_comm.hpp"
#include "axonn/core/grid4d.hpp"
#include "axonn/core/mlp.hpp"
#include "axonn/tensor/gemm.hpp"
#include "layers.hpp"
#include "probes.hpp"
#include "timing_comm.hpp"
#include "trace_stats.hpp"
#include "window.hpp"

namespace stepbench {

namespace {

using namespace axonn;

constexpr int kRanks = 2;
constexpr std::size_t kRows = 256;
constexpr std::size_t kWidth = 512;
constexpr std::size_t kLayers = 4;
constexpr float kLr = 0.5f;
constexpr int kWarmupSteps = 3;
constexpr int kSetups = 7;
constexpr std::uint64_t kMinSteps = 20;
const sim::GridShape kGrid{2, 1, 1, 1};

const std::vector<std::size_t> kDims(kLayers + 1, kWidth);

core::MLPOptions mlp_options() {
  core::MLPOptions o;
  o.overlap_input_grad_all_reduce = true;
  o.overlap_weight_grad_reduce_scatter = true;
  o.overlap_weight_all_gather = true;
  o.gemm_backend = GemmBackend::kTiled;
  o.init_std = 0.05f;
  return o;
}

constexpr std::size_t kInputs = 8;

/// The input batches, drawn from the seed once; step n uses n % kInputs.
std::vector<Matrix> make_inputs(std::uint64_t seed) {
  std::vector<Matrix> inputs;
  for (std::size_t i = 0; i < kInputs; ++i) {
    Rng rng(hash_combine(seed, i));
    inputs.push_back(Matrix::randn(kRows, kWidth, rng));
  }
  return inputs;
}

/// One MLP and its per-step pieces, for any grid (the oracle runs 1x1x1x1).
struct Trainer {
  core::TensorParallelMLP mlp;
  const std::vector<Matrix>& inputs;
  /// Stamps of the last step: forward start, forward end, loss, backward,
  /// sync and update ends.
  std::array<double, 6> t{};

  Trainer(core::Grid4D& grid, const std::vector<Matrix>& in)
      : mlp(grid, kDims, kModelSeed, mlp_options()), inputs(in) {}

  Matrix forward(std::uint64_t step) {
    return mlp.forward(mlp.scatter_input(inputs[step % kInputs]));
  }

  /// One SGD step on the mean-square output; returns this rank's local sum
  /// of squares.
  double step(std::uint64_t n) {
    mlp.zero_grad();
    const Matrix local_in = mlp.scatter_input(inputs[n % kInputs]);
    t[0] = now_s();
    Matrix out = mlp.forward(local_in);
    t[1] = now_s();
    double sum_sq = 0;
    for (float v : out.storage()) sum_sq += double(v) * v;
    out.scale_inplace(2.0f / float(kRows * kWidth));
    t[2] = now_s();
    mlp.backward(out);
    t[3] = now_s();
    mlp.sync_gradients_data_parallel();
    t[4] = now_s();
    mlp.apply_sgd(kLr);
    t[5] = now_s();
    return sum_sq;
  }
};

/// Mean of the ranks' local mean squares: the global mean-square output
/// (every rank holds an equal-size block; X-replicated blocks count alike).
double mean_square(comm::Communicator& world, const Matrix& local) {
  float ms = 0;
  for (float v : local.storage()) ms += v * v;
  ms /= static_cast<float>(local.size());
  world.all_reduce(std::span<float>(&ms, 1), comm::ReduceOp::kSum);
  return ms / static_cast<float>(world.size());
}

bool close(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) return false;
  return Matrix::max_abs_diff(got, want) <= 1e-3f * want.max_abs() + 1e-6f;
}

}  // namespace

Outcome run_mlp_4d(const Options& options) {
  Outcome out;
  const std::vector<Matrix> inputs = make_inputs(options.seed);

  // The oracle: the same MLP on one rank, after the same warm-up steps.
  std::vector<Matrix> oracle_out;  // one per input batch
  std::vector<Matrix> oracle_w;
  comm::run_ranks(1, [&](comm::Communicator& world) {
    core::Grid4D grid(world, sim::GridShape{1, 1, 1, 1});
    Trainer tr(grid, inputs);
    for (int s = 0; s < kWarmupSteps; ++s) tr.step(s);
    for (std::size_t i = 0; i < kInputs; ++i) {
      oracle_out.push_back(tr.forward(i));
    }
    for (std::size_t i = 0; i < kLayers; ++i) {
      oracle_w.push_back(tr.mlp.layer(i).gather_weight_block());
    }
  });

  std::array<double, kSetups> setup_s{};
  std::array<double, kSetups> final_loss{};
  std::vector<std::uint64_t> nonfinite(kRanks, 0);  // per rank
  std::atomic<std::uint64_t> mismatched{0};
  std::atomic<std::uint64_t> steps_run{0};
  std::array<std::vector<std::vector<double>>, 2> step_s;
  for (auto& phase : step_s) phase.resize(kRanks);
  std::vector<double> end_s;  // rank 0's step end stamps, end-to-end window
  std::uint64_t traced_steps = 0;
  std::vector<RankTrace> traces(kRanks);
  SpanTotals spans;
  std::array<double, 8> hwm{};
  std::vector<FcShape> fc_shapes;
  std::vector<FcLayerSpec> specs;
  std::uint64_t dropped = 0;

  for (int setup = 0; setup < kSetups; ++setup) {
    const bool last = setup + 1 == kSetups;
    if (last) mem::reset_high_water_marks();
    const double t_start = now_s();
    comm::run_ranks(kRanks, [&](comm::Communicator& world) {
      const int rank = world.rank();
      std::unique_ptr<TimingComm> timing;
      if (options.trace) timing = std::make_unique<TimingComm>(world);
      comm::Communicator& grid_world = timing ? *timing : world;
      core::Grid4D grid(grid_world, kGrid);
      Trainer tr(grid, inputs);

      auto train_step = [&](std::uint64_t n) {
        const double sum_sq = tr.step(n);
        if (!std::isfinite(sum_sq)) ++nonfinite[static_cast<std::size_t>(rank)];
        if (rank == 0) ++steps_run;
      };
      for (int s = 0; s < kWarmupSteps; ++s) train_step(s);
      world.barrier();
      if (rank == 0) setup_s[setup] = now_s() - t_start;

      // Correctness against the 1-rank oracle, outside any timed window.
      // final_loss averages every input batch, so it does not hang on the
      // one batch a seed draws last.
      const auto& head = tr.mlp.layer(kLayers - 1);
      double loss = 0;
      bool ok = true;
      for (std::size_t i = 0; i < kInputs; ++i) {
        const Matrix final_out = tr.forward(i);
        loss += mean_square(world, final_out) / kInputs;
        ok = ok && close(final_out,
                         oracle_out[i].block(head.input_row_range(kRows),
                                             head.output_col_range()));
      }
      if (rank == 0) final_loss[setup] = loss;
      for (std::size_t i = 0; i < kLayers; ++i) {
        const auto& layer = tr.mlp.layer(i);
        const Matrix block = tr.mlp.layer(i).gather_weight_block();
        ok = ok && close(block, oracle_w[i].block(layer.input_col_range(),
                                                  layer.output_col_range()));
      }
      if (!ok) ++mismatched;
      if (!last) return;

      if (rank == 0) {
        for (std::size_t i = 0; i < kLayers; ++i) {
          const auto& layer = tr.mlp.layer(i);
          fc_shapes.push_back({kRows / kGrid.gz, layer.in_local(),
                               layer.out_local()});
          specs.push_back({double(kRows), double(layer.in_features()),
                           double(layer.out_features()),
                           layer.options().transposed});
        }
      }

      auto plain_step = [&](std::uint64_t n) {
        train_step(kWarmupSteps + 1 + n);
      };
      if (!options.trace) {
        std::vector<double> ends;
        run_window(world, options.seconds, kMinSteps, step_s[0][rank], ends,
                   plain_step, [](std::uint64_t) {});
        if (rank == 0) end_s = std::move(ends);
        return;
      }

      // Traced window, interleaved as in gpt_seq128: even steps untraced,
      // odd steps traced.
      world.barrier();
      if (rank == 0) begin_traced_window();
      world.barrier();
      RankTrace& rt = traces[static_cast<std::size_t>(rank)];
      std::vector<double> all_steps, ends;
      const std::uint64_t ran = run_window(
          world, options.seconds, 2 * kMinSteps, all_steps, ends,
          [&](std::uint64_t n) {
            const bool traced = n % 2 == 1;
            timing->set_recording(traced);
            if (!traced) {
              plain_step(n);
              return;
            }
            const CommSnapshot before = snapshot_comm(grid);
            reset_gemm_dispatch_stats();
            const double t0 = now_s();
            plain_step(n);
            rt.step_s += tr.t[5] - t0;
            rt.fwd_s += tr.t[1] - tr.t[0];
            rt.bwd_s += tr.t[3] - tr.t[2];
            rt.sync_s += tr.t[4] - tr.t[3];
            rt.optimizer_s += tr.t[5] - tr.t[4];
            rt.gemm_flops += static_cast<double>(gemm_dispatch_flops());
            rt.add_comm(before, snapshot_comm(grid));
          },
          [&](std::uint64_t n) {
            world.barrier();
            if (rank != 0) return;
            if (n % 2 == 1) {
              const SpanTotals st =
                  span_totals(obs::merged_events(), kRanks, false);
              spans.fc_gemm_s += st.fc_gemm_s;
              dropped += obs::dropped_events();
              obs::clear();
            }
            obs::set_enabled(n % 2 == 0);  // step n + 1 is traced iff odd
          });
      timing->set_recording(false);
      for (std::size_t i = 0; i < all_steps.size(); ++i) {
        step_s[i % 2][rank].push_back(all_steps[i]);
      }
      world.barrier();
      if (rank == 0) {
        hwm = end_traced_window();
        traced_steps = ran / 2;
      }
    });
  }

  out.attempted = steps_run.load();
  const std::uint64_t bad_steps =
      *std::max_element(nonfinite.begin(), nonfinite.end());
  out.check(bad_steps == 0, "every step loss is finite", bad_steps);
  out.check(mismatched.load() == 0,
            "output and weights match the 1-rank serial MLP in every set-up",
            mismatched.load() * kWarmupSteps);
  bool identical = std::isfinite(final_loss[0]);
  for (double l : final_loss) {
    identical = identical && std::bit_cast<std::uint64_t>(l) ==
                                 std::bit_cast<std::uint64_t>(final_loss[0]);
  }
  out.check(identical,
            "final mean-square output bit-identical across " +
                std::to_string(kSetups) + " set-ups (" +
                fmt(final_loss[0], 8) + ")",
            kSetups * kWarmupSteps);

  if (!options.trace) {
    EndToEnd e2e;
    e2e.step_s = max_over_ranks(step_s[0]);
    e2e.tokens_per_s = block_rate(end_s, double(kRows));
    e2e.setup_s = median({setup_s.begin(), setup_s.end()});
    e2e.peak_mem_bytes = static_cast<double>(mem::total_hwm_bytes());
    e2e.final_loss = final_loss[0];
    emit_end_to_end(out, e2e);
    return out;
  }

  LayerTotals t;
  const double steps = static_cast<double>(traced_steps);
  t.has_core = true;
  fold_ranks(traces, steps, t);
  t.core_update_ms = t.optimizer_ms;
  t.fwd_ms = t.core_fwd_ms;
  t.fc_gemm_ms = 1e3 * spans.fc_gemm_s / (steps * kRanks);
  t.mem_hwm_mb = hwm;
  t.overhead_ms = 1e3 * (median(max_over_ranks(step_s[1])) -
                         median(max_over_ranks(step_s[0])));
  std::vector<std::pair<std::size_t, std::size_t>> gelu_shapes;
  for (const FcShape& s : fc_shapes) {
    t.fc_flops += s.flops();
    if (gelu_shapes.size() + 1 < fc_shapes.size()) {
      gelu_shapes.push_back({s.m, s.n});
    }
  }
  t.fc_gemm_gflops = fc_gemm_gflops(fc_shapes);
  t.gelu_ms = gelu_ms(gelu_shapes);
  t.calibrated_gflops = calibrated_gflops();
  const std::vector<double> predicted = predicted_wire_bytes(specs, kGrid);
  std::copy(predicted.begin(), predicted.end(), t.predicted_wire_bytes.begin());
  t.failed_step_frac = double(out.failed) / double(out.attempted);
  if (dropped > 0) {
    out.note("WARNING: " + std::to_string(dropped) +
             " trace events dropped; span-derived times are low");
  }
  out.note("n/a on this workload (reported as 0): attention, LM head, "
           "layernorm, checkpoints, replicas, integrity defenses");
  emit_per_layer(out, t);
  return out;
}

}  // namespace stepbench
