// Training-step benchmark: the binary stepbench/run.py builds and runs.
//
//   stepbench --workload <gpt_seq128|mlp_4d|gpt_resilient> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
// the traced per-layer breakdown instead. Every run also runs the workload's
// correctness checks. Human-readable lines (host stamp, checks, accounting,
// one "metric value unit" line per metric) come first; the last line of
// stdout is one JSON object {correct, attempted, failed, metrics}. Exit code
// 0 iff every check passed; 2 for a refused or broken run (no JSON line).

#include <immintrin.h>
#include <sched.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "axonn/tensor/gemm_dispatch.hpp"
#include "bench.hpp"

namespace {

using stepbench::Options;
using stepbench::Outcome;

// Environment overrides that change what the program does; a run under any
// of them would not measure the configuration the workloads define.
constexpr const char* kBehaviourEnv[] = {
    "AXONN_GEMM_THREADS", "AXONN_GEMM_ISA", "AXONN_INTEGRITY",
    "AXONN_RING_SEGMENT", "AXONN_MEM",      "AXONN_MEM_TRACE",
    "AXONN_TRACE",        "AXONN_METRICS",
};

[[noreturn]] void refuse(const std::string& why) {
  std::fprintf(stderr, "stepbench: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (key == "--seed") {
        o.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        o.seconds = std::stod(value);
        have_seconds = true;
      } else if (key == "--trace") {
        if (value != "0" && value != "1") refuse("--trace takes 0 or 1");
        o.trace = value == "1";
        have_trace = true;
      } else if (key == "--work-dir") {
        o.work_dir = value;
      } else {
        refuse("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      refuse("bad value for " + key + ": " + value);
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_seed || !have_seconds ||
      !have_trace || o.work_dir.empty()) {
    refuse(
        "usage: stepbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> --work-dir <dir>");
  }
  if (!(o.seconds > 0 && o.seconds <= 120)) refuse("--seconds out of range");
  return o;
}

/// Keeps every vCPU busy with one SCHED_IDLE pause loop each while it lives.
/// The kernel runs such a thread only when nothing else wants the CPU and
/// preempts it as soon as a rank or comm-lane thread wakes. Its purpose is
/// that an idle vCPU never halts: on a virtual machine, waking a halted vCPU
/// takes the hypervisor a time that depends on the other guests' load, and
/// every hand-off between rank and comm-lane threads pays it. Without the
/// loops, step times within one run spread over 1.6x (p10 to p90) on a 4-vCPU
/// guest; with them, a compute-bound step spreads by ~10%.
class IdleSpinners {
 public:
  explicit IdleSpinners(int count) {
    for (int i = 0; i < count; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) return;
        while (!stop_.load(std::memory_order_relaxed)) _mm_pause();
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  for (const char* name : kBehaviourEnv) {
    if (std::getenv(name)) {
      refuse(std::string(name) +
             " is set; it changes what is measured — unset it and rerun");
    }
  }
#ifndef __OPTIMIZE__
  refuse("this is a non-optimized build (" STEPBENCH_BUILD_TYPE
         "); build with RelWithDebInfo or Release");
#endif

  Outcome (*run)(const Options&) = nullptr;
  if (options.workload == "gpt_seq128") run = stepbench::run_gpt_seq128;
  if (options.workload == "mlp_4d") run = stepbench::run_mlp_4d;
  if (options.workload == "gpt_resilient") run = stepbench::run_gpt_resilient;
  if (!run) refuse("unknown workload " + options.workload);

  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  const int nproc = sched_getaffinity(0, sizeof(cpus), &cpus) == 0
                        ? CPU_COUNT(&cpus)
                        : static_cast<int>(std::thread::hardware_concurrency());
  std::printf("host: nproc=%d gemm_isa=%s build=%s idle_spinners=%d\n", nproc,
              axonn::to_string(axonn::active_gemm_isa()), STEPBENCH_BUILD_TYPE,
              nproc);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);

  Outcome out;
  try {
    std::filesystem::create_directories(options.work_dir);
    const IdleSpinners spinners(nproc);
    out = run(options);
  } catch (const std::exception& e) {
    refuse(std::string("run failed: ") + e.what());
  }

  for (auto& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.check(false, m.name + " is not a finite number", 0);
      m.value = 0;
    }
  }
  for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());
  for (const auto& m : out.metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    if (i) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return out.correct && out.failed == 0 ? 0 : 1;
}
