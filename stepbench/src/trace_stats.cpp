#include "trace_stats.hpp"

#include <map>
#include <utility>

namespace stepbench {

namespace obs = axonn::obs;

int grid_dim_of(const std::string& comm_name) {
  const auto split = comm_name.rfind("/split");
  if (split == std::string::npos) return -1;
  const auto digits = split + 6;
  const auto dot = comm_name.find('.', digits);
  if (dot == std::string::npos || dot == digits) return -1;
  int generation = 0;
  for (auto i = digits; i < dot; ++i) {
    const char c = comm_name[i];
    if (c < '0' || c > '9') return -1;
    generation = generation * 10 + (c - '0');
    if (generation > kDimData) return -1;
  }
  return generation;
}

namespace {

/// "op(comm name)" -> comm name; empty when the span names no communicator.
std::string comm_of(const std::string& span_name) {
  const auto open = span_name.find('(');
  if (open == std::string::npos || span_name.back() != ')') return {};
  return span_name.substr(open + 1, span_name.size() - open - 2);
}

int wait_dim(const std::string& name) {
  if (name == "AG_z.wait" || name == "RS_z.wait") return kDimZ;
  // The dI all-reduce runs on the layer's column group: X for the
  // non-transposed layers, Y for the transposed ones. The span does not say
  // which; it is charged to X.
  if (name == "AR_col.wait") return kDimX;
  return -1;
}

bool inside(const obs::SpanRec& span, const std::vector<obs::SpanRec>& iters) {
  for (const obs::SpanRec& it : iters) {
    if (it.tid == span.tid && span.begin_us >= it.begin_us &&
        span.end_us <= it.end_us) {
      return true;
    }
  }
  return false;
}

}  // namespace

SpanTotals span_totals(const std::vector<obs::TraceEvent>& events, int ranks,
                       bool only_in_iterations) {
  SpanTotals totals;
  for (int rank = 0; rank < ranks; ++rank) {
    const obs::SpanSet set = obs::build_spans(events, rank);
    for (const obs::SpanRec& span : set.spans) {
      const double s = (span.end_us - span.begin_us) * 1e-6;
      const bool main = span.stream == obs::StreamKind::kMain;
      const std::string_view category = span.category;
      if (category == obs::kCatCompute && main) {
        // The optimizer runs after train_step's iteration span closes.
        if (span.name == "optimizer_step") {
          totals.optimizer_s += s;
          continue;
        }
        if (only_in_iterations && !inside(span, set.iterations)) continue;
        if (span.name == "attn_fwd" || span.name == "attn_bwd") {
          totals.attn_s += s;
        } else if (span.name == "fwd_gemm" || span.name == "bwd_dI_gemm" ||
                   span.name == "bwd_dW_gemm") {
          totals.fc_gemm_s += s;
        }
      } else if (category == obs::kCatWait && main) {
        const int dim = wait_dim(span.name);
        if (dim >= 0) totals.dims[static_cast<std::size_t>(dim)].wait_s += s;
      } else if (category == obs::kCatComm) {
        const int dim = grid_dim_of(comm_of(span.name));
        if (dim < 0) continue;
        auto& d = totals.dims[static_cast<std::size_t>(dim)];
        ++d.calls;
        const bool async = span.name.rfind("i", 0) == 0;
        if (main && !async) d.blocking_s += s;
      }
    }
  }
  // Wire counters are cumulative per (rank, communicator): keep the last.
  std::map<std::pair<int, std::string>, double> wire;
  for (const obs::TraceEvent& e : events) {
    if (e.phase != obs::Phase::kCounter || e.rank < 0 || e.rank >= ranks ||
        e.name.rfind("wire_bytes(", 0) != 0) {
      continue;
    }
    double& last = wire[{e.rank, comm_of(e.name)}];
    if (e.value > last) last = e.value;
  }
  for (const auto& [key, bytes] : wire) {
    const int dim = grid_dim_of(key.second);
    if (dim < 0) continue;
    totals.dims[static_cast<std::size_t>(dim)].wire_bytes += bytes;
  }
  return totals;
}

}  // namespace stepbench
