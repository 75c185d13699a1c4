#pragma once

// Traced-run probes: the public tensor:: kernels timed at a workload's own
// shapes, the calibrated GEMM rate, and the Eq. 1-5 wire-byte prediction for
// a stack of FC layers.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "axonn/sim/grid_shape.hpp"

namespace stepbench {

/// One FC layer as this rank runs it: C(m x n) = A(m x k) x W(k x n)
/// forward, plus the NT (dI) and TN (dW) backward products.
struct FcShape {
  std::size_t m = 0, k = 0, n = 0;
  double flops() const { return 3.0 * 2.0 * double(m) * double(k) * double(n); }
};

/// GF/s of the tiled backend over one NN+NT+TN triple per shape.
double fc_gemm_gflops(const std::vector<FcShape>& shapes);
/// GF/s of the default gemm() over the LM head's NN+NT+TN triple.
double lm_head_gemm_gflops(const FcShape& shape);
/// ms for gelu + gelu_backward over each (rows, cols) shape, once each.
double gelu_ms(const std::vector<std::pair<std::size_t, std::size_t>>& shapes);
/// ms for `count` layernorm + layernorm_backward pairs at (rows x cols).
double layernorm_ms(std::size_t rows, std::size_t cols, int count);
/// Sustained tiled-GEMM GF/s from perf::calibrate_gemm_rate.
double calibrated_gflops();

/// An FC layer for the Eq. 1-5 prediction: global weight k x n, m input
/// rows in the layer's Z group.
struct FcLayerSpec {
  double group_rows = 0, k = 0, n = 0;
  bool transposed = false;
};

/// Predicted wire bytes per rank for one forward+backward over `layers`
/// (Eqs. 1-5 via perf::predict_layer, priced at the runtime's 4-byte fp32
/// elements), split by grid dimension {x, y, z, data}.
std::vector<double> predicted_wire_bytes(const std::vector<FcLayerSpec>& layers,
                                         const axonn::sim::GridShape& grid);

}  // namespace stepbench
