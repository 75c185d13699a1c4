// gpt_resilient: run_resilient_training, the user-facing supervisor, on a tiny
// GPT (hidden 128, 2 layers, sequence 32, batch 8 per rank, 1x1x2x1 grid)
// with every defense on: sentinel kHeal (journal depth 2), ABFT kDetect, ring
// CRC kHeal, elastic buddy replicas, and a disk checkpoint every 2 steps. No
// chaos.
//
// Batch 8, not 4: at batch 4 a step is mostly collectives between the two
// ranks, and two competing busy threads on the 4-vCPU host (5 ms on, 5 ms
// off) slowed its step p50 by 13% and p90 by 32%; at batch 8, by 1% and 6%.
// The defenses' state capture stays about a quarter of the step.
//
// The supervisor owns its world, so the benchmark only sees the call:
// tokens/s and set-up time come from the benchmark's clock around it,
// per-step times from the supervisor's own step telemetry (a MetricsSession,
// on in every run of this workload), and the traced run's per-layer figures
// from the program's spans and counters.

#include <bit>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "axonn/base/arena.hpp"
#include "axonn/base/metrics.hpp"
#include "axonn/base/step_telemetry.hpp"
#include "axonn/base/trace.hpp"
#include "axonn/comm/thread_comm.hpp"
#include "axonn/core/grid4d.hpp"
#include "axonn/train/gpt_model.hpp"
#include "axonn/train/resilient.hpp"
#include "layers.hpp"
#include "probes.hpp"
#include "trace_stats.hpp"

namespace stepbench {

namespace {

using namespace axonn;
namespace fs = std::filesystem;

constexpr int kRanks = 2;
constexpr std::size_t kBatch = 8;
constexpr std::size_t kSeq = 32;
constexpr std::size_t kHidden = 128;
constexpr int kLayers = 2;
constexpr int kVocab = 64;
constexpr int kStepsPerCall = 16;
constexpr int kSetups = 7;
constexpr std::size_t kMinCalls = 2;
const sim::GridShape kGrid{1, 1, 2, 1};

train::TinyGPTConfig model_config(bool defenses) {
  train::TinyGPTConfig c;
  c.vocab = kVocab;
  c.max_seq = static_cast<int>(kSeq);
  c.layers = kLayers;
  c.hidden = static_cast<int>(kHidden);
  c.heads = 4;
  c.seed = kModelSeed;
  c.overlap_collectives = true;
  c.gemm_backend = GemmBackend::kTiled;
  if (defenses) c.abft.mode = integrity::IntegrityMode::kDetect;
  return c;
}

train::CorpusConfig corpus_config() {
  train::CorpusConfig c;
  c.vocab = kVocab;
  c.doc_tokens = static_cast<int>(kSeq) + 1;
  c.seed = kModelSeed;
  return c;
}

train::ResilientTrainConfig job(std::uint64_t seed, const std::string& dir,
                                int steps, bool defenses) {
  train::ResilientTrainConfig c;
  c.model = model_config(defenses);
  c.grid = kGrid;
  c.corpus = corpus_config();
  c.total_steps = steps;
  c.batch_per_rank = static_cast<int>(kBatch);
  c.checkpoint_dir = dir;
  c.checkpoint_every = defenses ? 2 : 0;
  c.data_seed = seed;
  if (defenses) {
    c.sentinel.mode = integrity::IntegrityMode::kHeal;
    c.sentinel.journal_depth = 2;
    c.ring_crc = integrity::IntegrityMode::kHeal;
    c.elastic.enabled = true;
  }
  return c;
}

/// One step of the supervisor's telemetry (one JSONL line).
struct StepRow {
  double wall_max_s = 0, wall_mean_s = 0, exposed_mean_s = 0,
         gemm_gflop_mean = 0;
};

/// `"<field>":{... "<stat>":<number>` from a telemetry line.
double field(const std::string& line, const std::string& name,
             const std::string& stat) {
  const auto at = line.find("\"" + name + "\":{");
  if (at == std::string::npos) return 0;
  const auto s = line.find("\"" + stat + "\":", at);
  if (s == std::string::npos) return 0;
  return std::strtod(line.c_str() + s + stat.size() + 3, nullptr);
}

/// Tails the MetricsSession's JSONL file: each read returns the steps
/// emitted since the previous one.
class TelemetryTail {
 public:
  explicit TelemetryTail(std::string path) : path_(std::move(path)) {}
  std::vector<StepRow> read_new() {
    std::ifstream in(path_);
    in.seekg(offset_);
    std::vector<StepRow> rows;
    std::string line;
    while (std::getline(in, line)) {
      if (in.eof()) break;  // a line without its newline is still open
      offset_ += static_cast<std::streamoff>(line.size() + 1);
      rows.push_back({field(line, "wall_s", "max"),
                      field(line, "wall_s", "mean"),
                      field(line, "exposed_comm_s", "mean"),
                      field(line, "gemm_gflop", "mean")});
    }
    return rows;
  }

 private:
  std::string path_;
  std::streamoff offset_ = 0;
};

struct Call {
  train::ResilientTrainResult result;
  double wall_s = 0;
  double checkpoint_bytes = 0;
  std::vector<StepRow> steps;
};

}  // namespace

Outcome run_gpt_resilient(const Options& options) {
  Outcome out;
  const std::string telemetry_path =
      (fs::path(options.work_dir) / "gpt_resilient.metrics.jsonl").string();
  obs::MetricsSession session(telemetry_path);
  TelemetryTail tail(telemetry_path);
  const fs::path ckpt_dir = fs::path(options.work_dir) / "gpt_resilient.ckpt";
  const integrity::CountersSnapshot integrity_start =
      integrity::counters().snapshot();

  std::uint64_t restarts = 0, replays = 0;
  auto call = [&](int steps, bool defenses) {
    fs::remove_all(ckpt_dir);
    Call c;
    const double t0 = now_s();
    c.result = train::run_resilient_training(
        job(options.seed, ckpt_dir.string(), steps, defenses));
    c.wall_s = now_s() - t0;
    for (const auto& entry : fs::directory_iterator(ckpt_dir)) {
      if (entry.is_regular_file()) {
        c.checkpoint_bytes += static_cast<double>(entry.file_size());
      }
    }
    fs::remove_all(ckpt_dir);
    c.steps = tail.read_new();
    out.attempted += c.result.steps_executed;
    restarts += static_cast<std::uint64_t>(c.result.restarts);
    replays += c.result.step_replays;
    out.failed += c.result.step_replays +
                  static_cast<std::uint64_t>(c.result.restarts);
    if (!std::isfinite(c.result.final_loss)) out.failed += 1;
    return c;
  };

  // Set-up: world, grid and model construction plus one warm-up step.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) setup_s.push_back(call(1, true).wall_s);
  // The same job with every defense off, for the bit-identity check.
  const float reference_loss = call(kStepsPerCall, false).result.final_loss;

  // Timed calls: [0] end-to-end, or in a traced run the untraced calls;
  // [1] the traced calls. A traced run alternates the two, so host drift
  // stays out of the tracing overhead (traced minus untraced step p50).
  std::array<std::vector<Call>, 2> calls;
  SpanTotals spans;
  std::uint64_t dropped = 0;
  std::array<double, 8> hwm{};
  const integrity::CountersSnapshot window_before =
      integrity::counters().snapshot();
  const double crc0 = obs::metrics::snapshot().value_of("comm.crc_bytes");
  if (options.trace) {
    begin_traced_window();
  } else {
    mem::reset_high_water_marks();
  }
  const std::size_t min_calls = options.trace ? 2 * kMinCalls : kMinCalls;
  const double start = now_s();
  for (int k = 0; calls[0].size() + calls[1].size() < min_calls ||
                  now_s() - start < options.seconds;
       ++k) {
    const int phase = options.trace ? k % 2 : 0;
    if (options.trace) obs::set_enabled(phase == 1);
    calls[phase].push_back(call(kStepsPerCall, true));
    if (phase == 0) continue;
    const SpanTotals st = span_totals(obs::merged_events(), kRanks, true);
    spans.attn_s += st.attn_s;
    spans.fc_gemm_s += st.fc_gemm_s;
    spans.optimizer_s += st.optimizer_s;
    for (std::size_t d = 0; d < 4; ++d) {
      spans.dims[d].calls += st.dims[d].calls;
      spans.dims[d].blocking_s += st.dims[d].blocking_s;
      spans.dims[d].wait_s += st.dims[d].wait_s;
      spans.dims[d].wire_bytes += st.dims[d].wire_bytes;
    }
    dropped += obs::dropped_events();
    obs::clear();
  }
  const double peak_mem = static_cast<double>(mem::total_hwm_bytes());
  if (options.trace) hwm = end_traced_window();
  const integrity::CountersSnapshot window_after =
      integrity::counters().snapshot();
  const double crc_bytes =
      obs::metrics::snapshot().value_of("comm.crc_bytes") - crc0;

  bool same_loss = std::isfinite(reference_loss);
  for (const auto& phase : calls) {
    for (const Call& c : phase) {
      same_loss = same_loss &&
                  std::bit_cast<std::uint32_t>(c.result.final_loss) ==
                      std::bit_cast<std::uint32_t>(reference_loss);
    }
  }
  out.check(same_loss,
            "final loss with every defense on is bit-identical to the same "
            "job with the defenses off (" +
                fmt(reference_loss, 6) + ")",
            kStepsPerCall);
  out.check(restarts == 0 && replays == 0,
            "zero restarts and zero step replays (" + std::to_string(restarts) +
                ", " + std::to_string(replays) + ")",
            0);
  const std::uint64_t mismatches =
      window_after.sdc_detected - integrity_start.sdc_detected;
  out.check(mismatches == 0,
            "zero integrity mismatches (" + std::to_string(mismatches) + ")",
            mismatches);

  auto step_samples = [](const std::vector<Call>& phase) {
    std::vector<double> s;
    for (const Call& c : phase) {
      for (const StepRow& r : c.steps) s.push_back(r.wall_max_s);
    }
    return s;
  };

  if (!options.trace) {
    EndToEnd e2e;
    // Each call (16 steps) is one block of the throughput median.
    std::vector<double> call_tokens_per_s;
    for (const Call& c : calls[0]) {
      call_tokens_per_s.push_back(double(c.result.steps_executed) * kRanks *
                                  kBatch * kSeq / c.wall_s);
    }
    e2e.step_s = step_samples(calls[0]);
    e2e.tokens_per_s = median(call_tokens_per_s);
    e2e.setup_s = median(setup_s);
    e2e.peak_mem_bytes = peak_mem;
    e2e.final_loss = reference_loss;
    emit_end_to_end(out, e2e);
    return out;
  }

  LayerTotals t;
  double steps = 0, checkpoint_bytes = 0, pushes = 0;
  for (const Call& c : calls[1]) {
    checkpoint_bytes += c.checkpoint_bytes;
    pushes += static_cast<double>(c.result.replica_pushes);
    for (const StepRow& r : c.steps) {
      steps += 1;
      t.step_ms += 1e3 * r.wall_mean_s;
      t.exposed_ms += 1e3 * r.exposed_mean_s;
      t.gemm_gflop_per_step += r.gemm_gflop_mean * kRanks;
    }
  }
  t.step_ms /= steps;
  t.exposed_ms /= steps;
  t.gemm_gflop_per_step /= steps;
  const double per = 1.0 / (steps * kRanks);
  t.attn_ms = 1e3 * spans.attn_s * per;
  t.fc_gemm_ms = 1e3 * spans.fc_gemm_s * per;
  t.optimizer_ms = 1e3 * spans.optimizer_s * per;
  for (std::size_t d = 0; d < 4; ++d) {
    t.dims[d].calls = static_cast<double>(spans.dims[d].calls) * per;
    t.dims[d].blocking_ms = 1e3 * spans.dims[d].blocking_s * per;
    t.dims[d].wait_ms = 1e3 * spans.dims[d].wait_s * per;
    t.dims[d].wire_mb = to_mb(spans.dims[d].wire_bytes) * per;
  }
  // Process-wide counters cover every call of the window.
  double window_steps = 0;
  for (const auto& phase : calls) {
    for (const Call& c : phase) window_steps += double(c.steps.size());
  }
  t.crc_mb = to_mb(crc_bytes) / (window_steps * kRanks);
  t.checkpoint_mb = to_mb(checkpoint_bytes) / steps;
  t.replica_pushes = pushes / steps;
  t.step_replays = static_cast<double>(replays);
  t.restarts = static_cast<double>(restarts);
  t.mem_hwm_mb = hwm;
  add_integrity(window_before, window_after, window_steps, t);
  t.overhead_ms =
      1e3 * (median(step_samples(calls[1])) - median(step_samples(calls[0])));

  // train.fwd_ms: evaluate_loss on a step batch, on the same model outside
  // the supervisor, which exposes no forward pass of its own.
  std::vector<double> fwd_s(kRanks, 0.0);
  const train::BucketCorpus corpus(corpus_config());
  comm::run_ranks(kRanks, [&](comm::Communicator& world) {
    core::Grid4D grid(world, kGrid);
    train::GPTModel model(grid, model_config(true));
    std::vector<train::TokenSeq> batch;
    for (std::size_t b = 0; b < kBatch; ++b) {
      batch.push_back(corpus.background_doc(
          static_cast<std::uint64_t>(world.rank()) * kBatch + b));
    }
    model.evaluate_loss(batch);
    std::vector<double> reps;
    for (int r = 0; r < 5; ++r) {
      world.barrier();
      const double t0 = now_s();
      model.evaluate_loss(batch);
      reps.push_back(now_s() - t0);
    }
    fwd_s[static_cast<std::size_t>(world.rank())] = median(reps);
  });
  t.fwd_ms = 1e3 * mean(fwd_s);

  const std::size_t m = kBatch * kSeq;
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
  out.note("comm.* on this workload come from the program's comm spans and "
           "wire counters (the supervisor owns its world); wire bytes include "
           "the final evaluation pass");
  emit_per_layer(out, t);
  return out;
}

}  // namespace stepbench
