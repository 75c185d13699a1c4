#pragma once

// The two metric sets every workload reports, filled by the workloads and
// emitted here so names, units and order are the same for all of them:
//   end-to-end (untraced run)  -> emit_end_to_end
//   per-layer  (traced run)    -> emit_per_layer
// plus the snapshot helpers the traced runs take their deltas from.

#include <array>
#include <cstdint>
#include <vector>

#include "axonn/comm/communicator.hpp"
#include "axonn/core/grid4d.hpp"
#include "axonn/integrity/integrity.hpp"
#include "bench.hpp"
#include "timing_comm.hpp"

namespace stepbench {

struct EndToEnd {
  double tokens_per_s = 0;     ///< median over blocks (block_rate)
  std::vector<double> step_s;  ///< one sample per timed step, in step order
  double setup_s = 0;
  double peak_mem_bytes = 0;
  double final_loss = 0;
};

void emit_end_to_end(Outcome& out, const EndToEnd& e2e);

/// Per-layer figures. Times and counts are per training step and per rank
/// (mean over ranks) unless the name says otherwise.
struct LayerTotals {
  double step_ms = 0, fwd_ms = 0, optimizer_ms = 0, attn_ms = 0,
         fc_gemm_ms = 0;
  double checkpoint_mb = 0, replica_pushes = 0, step_replays = 0,
         restarts = 0;
  std::array<double, 8> mem_hwm_mb{};  ///< indexed by axonn::mem::Tag
  struct Dim {
    double calls = 0, wire_mb = 0, blocking_ms = 0, wait_ms = 0;
  };
  std::array<Dim, 4> dims{};  ///< x, y, z, data
  double exposed_ms = 0;      ///< blocking + wait over every grid dimension
  double crc_mb = 0;
  bool has_core = false;  ///< core.* apply (TensorParallelMLP workloads)
  double core_fwd_ms = 0, core_bwd_ms = 0, core_sync_ms = 0,
         core_update_ms = 0;
  double fc_gemm_gflops = 0, lm_head_gemm_gflops = 0, gelu_ms = 0,
         layernorm_ms = 0, gemm_gflop_per_step = 0;
  double abft_checks = 0, crc_checks = 0, sentinel_checks = 0,
         mismatches = 0;
  double calibrated_gflops = 0;
  double fc_flops = 0;  ///< FC GEMM flops per rank per step (from shapes)
  std::array<double, 4> predicted_wire_bytes{};  ///< Eq. 1-5, per rank
  double overhead_ms = 0;  ///< traced minus untraced step p50
  double failed_step_frac = 0;
};

/// Adds every per-layer metric, and note lines with the step accounting and
/// the model-vs-measured rows.
void emit_per_layer(Outcome& out, const LayerTotals& t);

/// Exposed-comm, wire and call counters of a grid built on a TimingComm
/// world, taken on the owning rank thread.
struct CommSnapshot {
  std::array<CommTally, 4> tally{};
  std::array<axonn::comm::CommStats, 4> stats{};
};
CommSnapshot snapshot_comm(axonn::core::Grid4D& grid);

/// One rank's sums over the traced steps.
struct RankTrace {
  double step_s = 0, optimizer_s = 0, fwd_s = 0, bwd_s = 0, sync_s = 0;
  std::array<CommTally, 4> comm{};
  std::array<double, 4> wire_bytes{};
  double crc_bytes = 0;
  double gemm_flops = 0;

  void add_comm(const CommSnapshot& before, const CommSnapshot& after);
};

/// Folds per-rank sums over `steps` traced steps into per-step rank means.
void fold_ranks(const std::vector<RankTrace>& ranks, double steps,
                LayerTotals& t);

/// Opens a traced window: fresh trace rings, arena high-water marks reset.
/// The caller switches tracing (obs::set_enabled) on for the traced steps.
/// Call from one thread while no rank is stepping.
void begin_traced_window();
/// Closes it: tracing off; returns the per-tag arena high-water marks (MB)
/// reached inside the window.
std::array<double, 8> end_traced_window();

/// Integrity counter deltas per step.
void add_integrity(const axonn::integrity::CountersSnapshot& before,
                   const axonn::integrity::CountersSnapshot& after,
                   double steps, LayerTotals& t);

}  // namespace stepbench
