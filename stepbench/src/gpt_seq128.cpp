// gpt_seq128: GPTModel::train_step + Adam::step of a tiny GPT (hidden 128,
// 2 layers, 4 heads, vocab 256, sequence 128, batch 4 per rank) on a 1x1x2x1
// grid (Z = 2, FSDP-style), tiled GEMM backend, overlap on, no defenses.

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>

#include "axonn/base/arena.hpp"
#include "axonn/base/trace.hpp"
#include "axonn/comm/thread_comm.hpp"
#include "axonn/core/grid4d.hpp"
#include "axonn/tensor/gemm.hpp"
#include "axonn/train/adam.hpp"
#include "axonn/train/corpus.hpp"
#include "axonn/train/gpt_model.hpp"
#include "layers.hpp"
#include "probes.hpp"
#include "timing_comm.hpp"
#include "trace_stats.hpp"
#include "window.hpp"

namespace stepbench {

namespace {

using namespace axonn;

constexpr int kRanks = 2;
constexpr std::size_t kBatch = 4;
constexpr std::size_t kSeq = 128;
constexpr std::size_t kHidden = 128;
constexpr int kLayers = 2;
constexpr int kVocab = 256;
constexpr int kWarmupSteps = 3;
constexpr int kSetups = 3;
constexpr std::uint64_t kMinSteps = 5;
const sim::GridShape kGrid{1, 1, 2, 1};

train::TinyGPTConfig model_config() {
  train::TinyGPTConfig c;
  c.vocab = kVocab;
  c.max_seq = static_cast<int>(kSeq);
  c.layers = kLayers;
  c.hidden = static_cast<int>(kHidden);
  c.heads = 4;
  c.seed = kModelSeed;
  c.overlap_collectives = true;
  c.gemm_backend = GemmBackend::kTiled;
  return c;
}

train::CorpusConfig corpus_config() {
  train::CorpusConfig c;
  c.vocab = kVocab;
  c.doc_tokens = static_cast<int>(kSeq) + 1;  // kSeq predicted positions
  c.seed = kModelSeed;
  return c;
}

std::vector<train::TokenSeq> docs(const train::BucketCorpus& corpus,
                                  std::uint64_t first) {
  std::vector<train::TokenSeq> batch;
  for (std::size_t b = 0; b < kBatch; ++b) {
    batch.push_back(corpus.background_doc(first + b));
  }
  return batch;
}

/// Documents are indexed from a seed-drawn base, so each seed trains and
/// evaluates on its own documents.
std::uint64_t data_base(std::uint64_t seed) {
  return hash_combine(kModelSeed, seed) >> 16;
}

std::uint64_t step_doc(std::uint64_t seed, std::uint64_t step, int rank) {
  return data_base(seed) +
         (step * kRanks + static_cast<std::uint64_t>(rank)) * kBatch;
}

std::uint64_t eval_doc(std::uint64_t seed, int rank) {
  return data_base(seed) - 1'000'000 +
         static_cast<std::uint64_t>(rank) * kBatch;
}

}  // namespace

Outcome run_gpt_seq128(const Options& options) {
  Outcome out;
  const train::BucketCorpus corpus(corpus_config());
  const double tokens_per_step = double(kRanks) * kBatch * kSeq;

  std::array<double, kSetups> setup_s{};
  std::array<float, kSetups> final_loss{};
  std::vector<std::uint64_t> nonfinite(kRanks, 0);  // per rank
  std::atomic<std::uint64_t> steps_run{0};

  // Step times: [0] the end-to-end window (traced run: its untraced steps),
  // [1] the traced run's traced steps.
  std::array<std::vector<std::vector<double>>, 2> step_s;
  for (auto& phase : step_s) phase.resize(kRanks);
  std::vector<double> end_s;  // rank 0's step end stamps, end-to-end window
  std::uint64_t traced_steps = 0;
  std::vector<RankTrace> traces(kRanks);
  std::vector<double> fwd_s(kRanks, 0.0);
  SpanTotals spans;
  std::array<double, 8> hwm{};
  integrity::CountersSnapshot integrity_before, integrity_after;
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
      train::GPTModel model(grid, model_config());
      train::Adam adam;
      model.register_params(adam);

      auto train_step = [&](std::uint64_t step) {
        model.zero_grad();
        const float loss =
            model.train_step(docs(corpus, step_doc(options.seed, step, rank)));
        if (!std::isfinite(loss)) ++nonfinite[static_cast<std::size_t>(rank)];
        if (rank == 0) ++steps_run;
        return loss;
      };

      for (int s = 0; s < kWarmupSteps; ++s) {
        train_step(static_cast<std::uint64_t>(s));
        adam.step();
      }
      world.barrier();
      if (rank == 0) setup_s[setup] = now_s() - t_start;
      const float eval =
          model.evaluate_loss(docs(corpus, eval_doc(options.seed, rank)));
      if (rank == 0) final_loss[setup] = eval;
      if (!last) return;

      auto plain_step = [&](std::uint64_t n) {
        train_step(kWarmupSteps + n);
        adam.step();
      };
      if (!options.trace) {
        std::vector<double> ends;
        run_window(world, options.seconds, kMinSteps, step_s[0][rank], ends,
                   plain_step, [](std::uint64_t) {});
        if (rank == 0) end_s = std::move(ends);
        return;
      }

      // Traced window: even steps run untraced, odd steps with the program's
      // spans on and the comm decorator recording. Interleaving keeps host
      // drift out of the tracing overhead (traced minus untraced p50).
      world.barrier();
      if (rank == 0) {
        begin_traced_window();
        integrity_before = integrity::counters().snapshot();
      }
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
            train_step(kWarmupSteps + n);
            const double t1 = now_s();
            adam.step();
            const double t2 = now_s();
            rt.step_s += t2 - t0;
            rt.optimizer_s += t2 - t1;
            rt.gemm_flops += static_cast<double>(gemm_dispatch_flops());
            rt.add_comm(before, snapshot_comm(grid));
          },
          [&](std::uint64_t n) {
            world.barrier();  // every rank's spans of the step are closed
            if (rank != 0) return;
            if (n % 2 == 1) {
              const SpanTotals st =
                  span_totals(obs::merged_events(), kRanks, false);
              spans.attn_s += st.attn_s;
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
        integrity_after = integrity::counters().snapshot();
      }
      world.barrier();
      // train.fwd_ms: evaluate_loss on a step batch.
      std::vector<double> reps;
      const auto batch = docs(corpus, step_doc(options.seed, 0, rank));
      for (int r = 0; r < 5; ++r) {
        world.barrier();
        const double t0 = now_s();
        model.evaluate_loss(batch);
        reps.push_back(now_s() - t0);
      }
      fwd_s[static_cast<std::size_t>(rank)] = median(reps);
    });
  }

  out.attempted = steps_run.load();
  const std::uint64_t bad_steps =
      *std::max_element(nonfinite.begin(), nonfinite.end());
  out.check(bad_steps == 0, "every step loss is finite", bad_steps);
  bool identical = std::isfinite(final_loss[0]);
  for (float l : final_loss) {
    identical = identical && std::bit_cast<std::uint32_t>(l) ==
                                 std::bit_cast<std::uint32_t>(final_loss[0]);
  }
  out.check(identical,
            "final loss finite and bit-identical across " +
                std::to_string(kSetups) + " set-ups (" +
                fmt(final_loss[0], 6) + ")",
            kSetups * kWarmupSteps);

  if (!options.trace) {
    EndToEnd e2e;
    e2e.step_s = max_over_ranks(step_s[0]);
    e2e.tokens_per_s = block_rate(end_s, tokens_per_step);
    e2e.setup_s = median({setup_s.begin(), setup_s.end()});
    e2e.peak_mem_bytes = static_cast<double>(mem::total_hwm_bytes());
    e2e.final_loss = final_loss[0];
    emit_end_to_end(out, e2e);
    return out;
  }

  LayerTotals t;
  const double steps = static_cast<double>(traced_steps);
  fold_ranks(traces, steps, t);
  t.attn_ms = 1e3 * spans.attn_s / (steps * kRanks);
  t.fc_gemm_ms = 1e3 * spans.fc_gemm_s / (steps * kRanks);
  t.fwd_ms = 1e3 * mean(fwd_s);
  t.mem_hwm_mb = hwm;
  add_integrity(integrity_before, integrity_after, steps, t);
  t.overhead_ms = 1e3 * (median(max_over_ranks(step_s[1])) -
                         median(max_over_ranks(step_s[0])));

  const std::size_t m = kBatch * kSeq;  // rows per rank: its own batch
  const std::size_t h = kHidden;
  const std::vector<FcShape> fc = {
      {m, h, 3 * h}, {m, h, h}, {m, h, 4 * h}, {m, 4 * h, h}};
  std::vector<FcLayerSpec> specs;
  for (const FcShape& s : fc) {
    t.fc_flops += kLayers * s.flops();
    for (int l = 0; l < kLayers; ++l) {
      specs.push_back({double(m) * kGrid.gz, double(s.k), double(s.n), false});
    }
  }
  t.fc_gemm_gflops = fc_gemm_gflops(fc);
  t.lm_head_gemm_gflops = lm_head_gemm_gflops({m, h, std::size_t{kVocab}});
  t.gelu_ms = gelu_ms(std::vector<std::pair<std::size_t, std::size_t>>(
      kLayers, {m, 4 * h}));
  t.layernorm_ms = layernorm_ms(m, h, 2 * kLayers + 1);
  t.calibrated_gflops = calibrated_gflops();
  const std::vector<double> predicted = predicted_wire_bytes(specs, kGrid);
  std::copy(predicted.begin(), predicted.end(), t.predicted_wire_bytes.begin());
  t.failed_step_frac = double(out.failed) / double(out.attempted);
  if (dropped > 0) {
    out.note("WARNING: " + std::to_string(dropped) +
             " trace events dropped; span-derived times are low");
  }
  emit_per_layer(out, t);
  return out;
}

}  // namespace stepbench
