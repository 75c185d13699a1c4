#include "probes.hpp"

#include "axonn/base/rng.hpp"
#include "axonn/perf/comm_model.hpp"
#include "axonn/perf/gemm_calibration.hpp"
#include "axonn/tensor/gemm.hpp"
#include "axonn/tensor/ops.hpp"
#include "bench.hpp"
#include "trace_stats.hpp"

namespace stepbench {

using axonn::GemmBackend;
using axonn::GemmMode;
using axonn::Matrix;
using axonn::Rng;

namespace {

/// Median seconds of `fn` over at least 5 repeats and ~0.2 s, after one
/// untimed warm-up call.
template <typename Fn>
double time_median_s(Fn&& fn) {
  fn();
  std::vector<double> reps;
  const double start = now_s();
  while (reps.size() < 5 || (now_s() - start < 0.2 && reps.size() < 200)) {
    const double t0 = now_s();
    fn();
    reps.push_back(now_s() - t0);
  }
  return median(std::move(reps));
}

struct Operands {
  Matrix a, w, dout, c, da, dw;
  explicit Operands(const FcShape& s) {
    Rng rng(s.m * 131 + s.k * 17 + s.n);
    a = Matrix::randn(s.m, s.k, rng);
    w = Matrix::randn(s.k, s.n, rng);
    dout = Matrix::randn(s.m, s.n, rng);
    c = Matrix(s.m, s.n);
    da = Matrix(s.m, s.k);
    dw = Matrix(s.k, s.n);
  }
};

}  // namespace

double fc_gemm_gflops(const std::vector<FcShape>& shapes) {
  std::vector<Operands> ops;
  double flops = 0;
  for (const FcShape& s : shapes) {
    ops.emplace_back(s);
    flops += s.flops();
  }
  const double secs = time_median_s([&] {
    for (Operands& o : ops) {
      axonn::gemm(GemmBackend::kTiled, GemmMode::kNN, 1.0f, o.a, o.w, 0.0f,
                  o.c);
      axonn::gemm(GemmBackend::kTiled, GemmMode::kNT, 1.0f, o.dout, o.w, 0.0f,
                  o.da);
      axonn::gemm(GemmBackend::kTiled, GemmMode::kTN, 1.0f, o.a, o.dout, 0.0f,
                  o.dw);
    }
  });
  return flops / secs / 1e9;
}

double lm_head_gemm_gflops(const FcShape& shape) {
  Operands o(shape);
  const double secs = time_median_s([&] {
    axonn::gemm(GemmMode::kNN, 1.0f, o.a, o.w, 0.0f, o.c);
    axonn::gemm(GemmMode::kNT, 1.0f, o.dout, o.w, 0.0f, o.da);
    axonn::gemm(GemmMode::kTN, 1.0f, o.a, o.dout, 0.0f, o.dw);
  });
  return shape.flops() / secs / 1e9;
}

double gelu_ms(const std::vector<std::pair<std::size_t, std::size_t>>& shapes) {
  std::vector<Matrix> xs, ds;
  Rng rng(7);
  for (const auto& [rows, cols] : shapes) {
    xs.push_back(Matrix::randn(rows, cols, rng));
    ds.push_back(Matrix::randn(rows, cols, rng));
  }
  return 1e3 * time_median_s([&] {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const Matrix y = axonn::gelu(xs[i]);
      const Matrix dx = axonn::gelu_backward(ds[i], xs[i]);
      (void)y;
      (void)dx;
    }
  });
}

double layernorm_ms(std::size_t rows, std::size_t cols, int count) {
  Rng rng(11);
  const Matrix x = Matrix::randn(rows, cols, rng);
  const Matrix dout = Matrix::randn(rows, cols, rng);
  const std::vector<float> gamma(cols, 1.0f), beta(cols, 0.0f);
  return 1e3 * time_median_s([&] {
    for (int i = 0; i < count; ++i) {
      axonn::LayerNormCache cache;
      const Matrix y = axonn::layernorm(x, gamma, beta, cache);
      std::vector<float> dgamma, dbeta;
      const Matrix dx =
          axonn::layernorm_backward(dout, cache, gamma, dgamma, dbeta);
      (void)y;
      (void)dx;
    }
  });
}

double calibrated_gflops() {
  return axonn::perf::calibrate_gemm_rate().sustained_gflops;
}

std::vector<double> predicted_wire_bytes(const std::vector<FcLayerSpec>& layers,
                                         const axonn::sim::GridShape& grid) {
  // The model prices bf16 (2-byte) elements; the runtime moves fp32.
  constexpr double kFp32OverBf16 = 2.0;
  // Bandwidths only scale predicted times; bytes do not depend on them.
  const axonn::perf::DimensionBandwidths unit{1.0, 1.0, 1.0, 1.0};
  std::vector<double> bytes(4, 0.0);
  for (const FcLayerSpec& l : layers) {
    const auto p = axonn::perf::predict_layer(l.group_rows, l.k, l.n,
                                              l.transposed, grid, unit);
    bytes[kDimZ] += kFp32OverBf16 * (p.bytes_ag_z + p.bytes_rs_z);
    // Eq. 3 runs on the row group, Eq. 4 on the column group: row = Y and
    // column = X, swapped for transposed layers.
    bytes[l.transposed ? kDimX : kDimY] += kFp32OverBf16 * p.bytes_ar_fwd;
    bytes[l.transposed ? kDimY : kDimX] += kFp32OverBf16 * p.bytes_ar_bwd;
    if (grid.gdata > 1) bytes[kDimData] += kFp32OverBf16 * p.bytes_ar_data;
  }
  return bytes;
}

}  // namespace stepbench
