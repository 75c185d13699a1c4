#pragma once

// Comm-timing decorator for any Communicator (the benchmark's view of the
// comm layer, built like comm::ChaosComm).
//
// It forwards every call to the wrapped communicator. While its rank's
// recording switch is on it also counts collective calls, times blocking
// collectives, and hands back Requests whose wait() is timed: the returned
// Request holds a deferred future that waits on the inner Request, so the
// time lands in the tally of the thread that waits. split() wraps the child
// communicator, so a Grid4D built on a wrapped world yields wrapped X/Y/Z/
// data groups whose tallies can be read back through as_timing().
//
// A tally is written only by the rank thread that owns the communicator
// (blocking calls and Request waits both run there); read it from the same
// thread.

#include <cstdint>
#include <memory>
#include <string>

#include "axonn/comm/communicator.hpp"

namespace stepbench {

struct CommTally {
  std::uint64_t calls = 0;  ///< collectives issued (blocking + nonblocking)
  double blocking_s = 0;    ///< time inside blocking collectives
  double wait_s = 0;        ///< time inside Request::wait of returned requests
};

class TimingComm final : public axonn::comm::Communicator {
 public:
  /// Wraps `inner` (not owned; must outlive this object) — the world.
  explicit TimingComm(axonn::comm::Communicator& inner);

  /// Recording switch shared by this communicator and every split() child.
  void set_recording(bool on) { *recording_ = on; }
  const CommTally& tally() const { return *tally_; }

  int rank() const override { return inner_->rank(); }
  int size() const override { return inner_->size(); }

  void all_reduce(std::span<float> buffer,
                  axonn::comm::ReduceOp op) override;
  void all_gather(std::span<const float> send, std::span<float> recv) override;
  void all_gatherv(std::span<const float> send, std::span<float> recv,
                   std::span<const std::size_t> recv_counts) override;
  void reduce_scatter(std::span<const float> send, std::span<float> recv,
                      axonn::comm::ReduceOp op) override;
  void reduce_scatterv(std::span<const float> send, std::span<float> recv,
                       std::span<const std::size_t> counts,
                       axonn::comm::ReduceOp op) override;
  void broadcast(std::span<float> buffer, int root) override;
  void barrier() override;

  axonn::comm::Request iall_reduce(
      std::span<float> buffer, axonn::comm::ReduceOp op,
      axonn::comm::CommPriority priority) override;
  axonn::comm::Request iall_gather(
      std::span<const float> send, std::span<float> recv,
      axonn::comm::CommPriority priority) override;
  axonn::comm::Request iall_gatherv(
      std::span<const float> send, std::span<float> recv,
      std::span<const std::size_t> recv_counts,
      axonn::comm::CommPriority priority) override;
  axonn::comm::Request ireduce_scatter(
      std::span<const float> send, std::span<float> recv,
      axonn::comm::ReduceOp op, axonn::comm::CommPriority priority) override;
  axonn::comm::Request ireduce_scatterv(
      std::span<const float> send, std::span<float> recv,
      std::span<const std::size_t> counts, axonn::comm::ReduceOp op,
      axonn::comm::CommPriority priority) override;
  axonn::comm::Request run_on_stream(
      std::function<void()> fn, axonn::comm::CommPriority priority) override;

  std::unique_ptr<axonn::comm::Communicator> split(int color,
                                                   int key) override;

  const axonn::comm::CommStats& stats() const override {
    return inner_->stats();
  }
  void reset_stats() override { inner_->reset_stats(); }
  std::string name() const override { return inner_->name(); }

 private:
  TimingComm(std::unique_ptr<axonn::comm::Communicator> owned,
             std::shared_ptr<bool> recording);

  template <typename Fn>
  void blocking(Fn&& fn);
  axonn::comm::Request timed(axonn::comm::Request request);

  std::unique_ptr<axonn::comm::Communicator> owned_;
  axonn::comm::Communicator* inner_;
  std::shared_ptr<bool> recording_;
  std::shared_ptr<CommTally> tally_ = std::make_shared<CommTally>();
};

/// The decorator behind `comm` (a Grid4D group built on a TimingComm world).
/// Throws if `comm` is not one.
TimingComm& as_timing(axonn::comm::Communicator& comm);

}  // namespace stepbench
