#include "layers.hpp"

#include "axonn/base/arena.hpp"
#include "axonn/base/trace.hpp"
#include "trace_stats.hpp"

namespace stepbench {

namespace mem = axonn::mem;

void emit_end_to_end(Outcome& out, const EndToEnd& e2e) {
  std::string deciles;
  for (int d = 1; d <= 9; ++d) {
    deciles += " " + fmt(1e3 * quantile(e2e.step_s, d / 10.0), 2);
  }
  out.note("step samples: " + std::to_string(e2e.step_s.size()) + " in " +
           std::to_string(step_blocks(e2e.step_s.size()).size()) +
           " blocks; deciles p10..p90 over the run (ms):" + deciles);
  out.add("tokens_per_s", e2e.tokens_per_s, "tokens/s");
  out.add("step_ms_p50", 1e3 * block_quantile(e2e.step_s, 0.5), "ms");
  out.add("step_ms_p90", 1e3 * block_quantile(e2e.step_s, 0.9), "ms");
  out.add("setup_s", e2e.setup_s, "s");
  out.add("peak_mem_mb", to_mb(e2e.peak_mem_bytes), "MB");
  out.add("final_loss", e2e.final_loss, "loss");
}

void emit_per_layer(Outcome& out, const LayerTotals& t) {
  const double untraced =
      t.step_ms - t.attn_ms - t.fc_gemm_ms - t.optimizer_ms - t.exposed_ms;
  out.note("train accounting (ms/step, rank mean): step " + fmt(t.step_ms) +
           " = attn " + fmt(t.attn_ms) + " + fc_gemm " + fmt(t.fc_gemm_ms) +
           " + optimizer " + fmt(t.optimizer_ms) + " + exposed comm " +
           fmt(t.exposed_ms) + " + untraced residual " + fmt(untraced) + " (" +
           fmt(t.step_ms > 0 ? 100 * untraced / t.step_ms : 0, 1) +
           "% of the step)");
  const double core_total =
      t.core_fwd_ms + t.core_bwd_ms + t.core_sync_ms + t.core_update_ms;
  const double core_residual = t.has_core ? t.step_ms - core_total : 0;
  if (t.has_core) {
    out.note("core accounting (ms/step, rank mean): step " + fmt(t.step_ms) +
             " = fwd " + fmt(t.core_fwd_ms) + " + bwd " + fmt(t.core_bwd_ms) +
             " + sync " + fmt(t.core_sync_ms) + " + update " +
             fmt(t.core_update_ms) + " + residual " + fmt(core_residual));
  }

  // Model-vs-measured rows (Fig. 2's validation, per layer).
  const double fc_pred_ms =
      t.calibrated_gflops > 0 ? 1e3 * t.fc_flops / (t.calibrated_gflops * 1e9)
                              : 0;
  const double fc_ratio = fc_pred_ms > 0 ? t.fc_gemm_ms / fc_pred_ms : 0;
  out.note("model vs measured: fc_gemm " + fmt(t.fc_gemm_ms) +
           " ms measured, " + fmt(fc_pred_ms) + " ms predicted (" +
           fmt(t.fc_flops / 1e9) + " GF at " + fmt(t.calibrated_gflops, 2) +
           " GF/s calibrated), ratio " + fmt(fc_ratio, 3));
  double wire_measured = 0, wire_predicted = 0;
  static const char* const kDimNames[] = {"x", "y", "z", "data"};
  for (std::size_t d = 0; d < 4; ++d) {
    const double measured_mb = t.dims[d].wire_mb;
    const double predicted_mb = to_mb(t.predicted_wire_bytes[d]);
    wire_measured += measured_mb;
    wire_predicted += predicted_mb;
    out.note(std::string("model vs measured: wire ") + kDimNames[d] + " " +
             fmt(measured_mb) + " MB measured, " + fmt(predicted_mb) +
             " MB predicted by Eq. 1-5 (FC layers only)");
  }
  const double wire_ratio =
      wire_predicted > 0 ? wire_measured / wire_predicted : 0;
  out.note("tracing overhead: " + fmt(t.overhead_ms) +
           " ms/step (traced minus untraced step p50)");

  out.add("train.step_ms", t.step_ms, "ms");
  out.add("train.fwd_ms", t.fwd_ms, "ms");
  out.add("train.optimizer_ms", t.optimizer_ms, "ms");
  out.add("train.attn_ms", t.attn_ms, "ms");
  out.add("train.fc_gemm_ms", t.fc_gemm_ms, "ms");
  out.add("train.untraced_ms", untraced, "ms");
  out.add("train.checkpoint_mb", t.checkpoint_mb, "MB");
  out.add("train.replica_pushes", t.replica_pushes, "count");
  out.add("train.step_replays", t.step_replays, "count");
  out.add("train.restarts", t.restarts, "count");
  static const std::pair<mem::Tag, const char*> kTags[] = {
      {mem::Tag::kActivations, "activations"},
      {mem::Tag::kWeights, "weights"},
      {mem::Tag::kGrads, "grads"},
      {mem::Tag::kAdam, "adam"},
      {mem::Tag::kPackedPanels, "packed_panels"},
      {mem::Tag::kCommBuffers, "comm_buffers"},
      {mem::Tag::kJournal, "journal"},
  };
  for (const auto& [tag, name] : kTags) {
    out.add(std::string("mem.") + name + "_hwm_mb",
            t.mem_hwm_mb[static_cast<std::size_t>(tag)], "MB");
  }
  for (std::size_t d : {std::size_t{kDimX}, std::size_t{kDimZ}}) {
    const std::string prefix = std::string("comm.") + kDimNames[d] + ".";
    out.add(prefix + "calls", t.dims[d].calls, "count");
    out.add(prefix + "wire_mb", t.dims[d].wire_mb, "MB");
    out.add(prefix + "blocking_ms", t.dims[d].blocking_ms, "ms");
    out.add(prefix + "wait_ms", t.dims[d].wait_ms, "ms");
  }
  out.add("comm.exposed_ms", t.exposed_ms, "ms");
  out.add("comm.crc_mb", t.crc_mb, "MB");
  out.add("core.fwd_ms", t.core_fwd_ms, "ms");
  out.add("core.bwd_ms", t.core_bwd_ms, "ms");
  out.add("core.sync_ms", t.core_sync_ms, "ms");
  out.add("core.update_ms", t.core_update_ms, "ms");
  out.add("core.residual_ms", core_residual, "ms");
  out.add("tensor.fc_gemm_gflops", t.fc_gemm_gflops, "GF/s");
  out.add("tensor.lm_head_gemm_gflops", t.lm_head_gemm_gflops, "GF/s");
  out.add("tensor.gelu_ms", t.gelu_ms, "ms");
  out.add("tensor.layernorm_ms", t.layernorm_ms, "ms");
  out.add("tensor.gemm_gflop_per_step", t.gemm_gflop_per_step, "GF");
  out.add("integrity.abft_checks", t.abft_checks, "count");
  out.add("integrity.crc_checks", t.crc_checks, "count");
  out.add("integrity.sentinel_checks", t.sentinel_checks, "count");
  out.add("integrity.mismatches", t.mismatches, "count");
  out.add("perf.fc_gemm_pred_ratio", fc_ratio, "ratio");
  out.add("perf.wire_bytes_pred_ratio", wire_ratio, "ratio");
  out.add("trace.overhead_ms", t.overhead_ms, "ms");
  out.add("failed_step_frac", t.failed_step_frac, "fraction");
}

CommSnapshot snapshot_comm(axonn::core::Grid4D& grid) {
  CommSnapshot snap;
  axonn::comm::Communicator* comms[] = {&grid.x_comm(), &grid.y_comm(),
                                        &grid.z_comm(), &grid.data_comm()};
  for (std::size_t d = 0; d < 4; ++d) {
    snap.tally[d] = as_timing(*comms[d]).tally();
    snap.stats[d] = comms[d]->stats();
  }
  return snap;
}

void RankTrace::add_comm(const CommSnapshot& before,
                         const CommSnapshot& after) {
  for (std::size_t d = 0; d < 4; ++d) {
    comm[d].calls += after.tally[d].calls - before.tally[d].calls;
    comm[d].blocking_s +=
        after.tally[d].blocking_s - before.tally[d].blocking_s;
    comm[d].wait_s += after.tally[d].wait_s - before.tally[d].wait_s;
    wire_bytes[d] += static_cast<double>(after.stats[d].wire_bytes_sent -
                                         before.stats[d].wire_bytes_sent);
    crc_bytes += static_cast<double>(after.stats[d].crc_bytes_sent -
                                     before.stats[d].crc_bytes_sent);
  }
}

void fold_ranks(const std::vector<RankTrace>& ranks, double steps,
                LayerTotals& t) {
  const double per = 1.0 / (steps * static_cast<double>(ranks.size()));
  for (const RankTrace& r : ranks) {
    t.step_ms += 1e3 * r.step_s * per;
    t.optimizer_ms += 1e3 * r.optimizer_s * per;
    t.core_fwd_ms += 1e3 * r.fwd_s * per;
    t.core_bwd_ms += 1e3 * r.bwd_s * per;
    t.core_sync_ms += 1e3 * r.sync_s * per;
    for (std::size_t d = 0; d < 4; ++d) {
      t.dims[d].calls += static_cast<double>(r.comm[d].calls) * per;
      t.dims[d].blocking_ms += 1e3 * r.comm[d].blocking_s * per;
      t.dims[d].wait_ms += 1e3 * r.comm[d].wait_s * per;
      t.dims[d].wire_mb += to_mb(r.wire_bytes[d]) * per;
      t.exposed_ms += 1e3 * (r.comm[d].blocking_s + r.comm[d].wait_s) * per;
    }
    t.crc_mb += to_mb(r.crc_bytes) * per;
    // Summed over ranks: the whole grid's GEMM work per step.
    t.gemm_gflop_per_step += r.gemm_flops / 1e9 / steps;
  }
}

void begin_traced_window() {
  axonn::obs::set_ring_capacity(std::size_t{1} << 20);
  axonn::obs::clear();
  mem::reset_high_water_marks();
}

std::array<double, 8> end_traced_window() {
  axonn::obs::set_enabled(false);
  std::array<double, 8> hwm{};
  for (std::size_t i = 0; i < hwm.size(); ++i) {
    hwm[i] = to_mb(static_cast<double>(
        mem::tag_stats(static_cast<mem::Tag>(i)).hwm_bytes));
  }
  return hwm;
}

void add_integrity(const axonn::integrity::CountersSnapshot& before,
                   const axonn::integrity::CountersSnapshot& after,
                   double steps, LayerTotals& t) {
  auto per_step = [&](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a) / steps;
  };
  t.abft_checks = per_step(before.abft_checks, after.abft_checks);
  t.crc_checks = per_step(before.ring_crc_checks, after.ring_crc_checks);
  t.sentinel_checks = per_step(before.sentinel_checks, after.sentinel_checks);
  // A count over the whole traced phase: any mismatch is a failure.
  t.mismatches = static_cast<double>(after.sdc_detected - before.sdc_detected);
}

}  // namespace stepbench
