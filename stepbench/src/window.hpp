#pragma once

// The timed window every rank of a run loops through together.

#include <cstdint>
#include <vector>

#include "axonn/comm/communicator.hpp"
#include "bench.hpp"

namespace stepbench {

/// Runs whole steps on every rank until rank 0 is past `seconds` (and at
/// least `min_steps` ran). Before each step the ranks agree to continue with
/// a one-float all-reduce on `world` — pass the raw world, so the agreement
/// stays out of any comm tally. `step(n)` runs step n and is timed into
/// `step_s`, and the time it ended (seconds since the window opened) goes to
/// `end_s`; `after(n)` runs untimed after it. Returns the steps run.
template <typename Step, typename After>
std::uint64_t run_window(axonn::comm::Communicator& world, double seconds,
                         std::uint64_t min_steps, std::vector<double>& step_s,
                         std::vector<double>& end_s, Step&& step,
                         After&& after) {
  const double start = now_s();
  std::uint64_t n = 0;
  for (;;) {
    float stop = world.rank() == 0 && n >= min_steps &&
                         now_s() - start >= seconds
                     ? 1.0f
                     : 0.0f;
    world.all_reduce(std::span<float>(&stop, 1), axonn::comm::ReduceOp::kMax);
    if (stop > 0) break;
    const double t0 = now_s();
    step(n);
    const double t1 = now_s();
    step_s.push_back(t1 - t0);
    end_s.push_back(t1 - start);
    after(n);
    ++n;
  }
  return n;
}

/// Per-step maximum over ranks: the step's wall time as the grid sees it.
inline std::vector<double> max_over_ranks(
    const std::vector<std::vector<double>>& per_rank) {
  std::vector<double> out;
  if (per_rank.empty()) return out;
  out = per_rank.front();
  for (const auto& r : per_rank) {
    for (std::size_t i = 0; i < out.size() && i < r.size(); ++i) {
      if (r[i] > out[i]) out[i] = r[i];
    }
  }
  return out;
}

}  // namespace stepbench
