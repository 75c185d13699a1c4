#pragma once

// Reads per-layer times out of the program's own flight-recorder spans
// (axonn::obs), without adding any span to the program:
//   attn_fwd / attn_bwd                      -> attention
//   fwd_gemm / bwd_dI_gemm / bwd_dW_gemm     -> FC GEMMs
//   optimizer_step                           -> Adam
//   "<op>(<comm name>)" comm spans, *.wait   -> per grid dimension comm
//   "wire_bytes(<comm name>)" counters       -> per grid dimension wire bytes

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "axonn/base/trace.hpp"

namespace stepbench {

enum GridDim { kDimX = 0, kDimY = 1, kDimZ = 2, kDimData = 3 };

/// Grid4D splits the world in the order X, Y, Z, data, and ThreadComm names
/// a split child "<parent>/split<generation>.<color>": the generation of the
/// last split in `comm_name` is the grid dimension. -1 for anything else.
int grid_dim_of(const std::string& comm_name);

struct SpanTotals {
  double attn_s = 0;
  double fc_gemm_s = 0;
  double optimizer_s = 0;
  struct Dim {
    std::uint64_t calls = 0;  ///< collectives, blocking or not, any stream
    double blocking_s = 0;    ///< blocking collectives on the main stream
    double wait_s = 0;        ///< Request waits on the main stream
    double wire_bytes = 0;    ///< lifetime totals of the dimension's comms
  };
  std::array<Dim, 4> dims{};
};

/// Sums over ranks [0, ranks) of `events` (from obs::merged_events()).
/// With `only_in_iterations`, attention and FC spans count only inside the
/// program's per-step iteration spans (GPTModel::train_step), which leaves
/// out evaluation passes.
SpanTotals span_totals(const std::vector<axonn::obs::TraceEvent>& events,
                       int ranks, bool only_in_iterations);

}  // namespace stepbench
