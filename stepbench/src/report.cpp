#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"

namespace stepbench {

void Outcome::check(bool ok, const std::string& what,
                    std::uint64_t failed_steps) {
  note(std::string(ok ? "check ok:   " : "check FAIL: ") + what);
  if (!ok) {
    correct = false;
    failed += std::max<std::uint64_t>(failed_steps, 1);
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<std::pair<std::size_t, std::size_t>> step_blocks(std::size_t n) {
  const std::size_t len = std::max(kMinBlockSteps, n / kBlocks);
  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  for (std::size_t b = 0; b < n; b += len) blocks.push_back({b, b + len});
  if (blocks.size() > 1 && blocks.back().second > n) {
    blocks.pop_back();  // a short tail joins the block before it
  }
  if (!blocks.empty()) blocks.back().second = n;
  return blocks;
}

double block_quantile(const std::vector<double>& samples, double q) {
  std::vector<double> per_block;
  for (const auto& [begin, end] : step_blocks(samples.size())) {
    per_block.push_back(quantile(
        {samples.begin() + static_cast<std::ptrdiff_t>(begin),
         samples.begin() + static_cast<std::ptrdiff_t>(end)},
        q));
  }
  return median(per_block);
}

double block_rate(const std::vector<double>& end_s, double per_step) {
  std::vector<double> per_block;
  for (const auto& [begin, end] : step_blocks(end_s.size())) {
    const double start = begin == 0 ? 0.0 : end_s[begin - 1];
    per_block.push_back(per_step * double(end - begin) /
                        (end_s[end - 1] - start));
  }
  return median(per_block);
}

std::string fmt(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

}  // namespace stepbench
