#include "timing_comm.hpp"

#include <future>
#include <stdexcept>

#include "bench.hpp"

namespace stepbench {

using axonn::comm::CommPriority;
using axonn::comm::Communicator;
using axonn::comm::ReduceOp;
using axonn::comm::Request;

TimingComm::TimingComm(Communicator& inner)
    : inner_(&inner), recording_(std::make_shared<bool>(false)) {}

TimingComm::TimingComm(std::unique_ptr<Communicator> owned,
                       std::shared_ptr<bool> recording)
    : owned_(std::move(owned)),
      inner_(owned_.get()),
      recording_(std::move(recording)) {}

template <typename Fn>
void TimingComm::blocking(Fn&& fn) {
  if (!*recording_) {
    fn();
    return;
  }
  ++tally_->calls;
  const double t0 = now_s();
  fn();
  tally_->blocking_s += now_s() - t0;
}

Request TimingComm::timed(Request request) {
  if (!*recording_) return request;
  ++tally_->calls;
  std::shared_future<void> done =
      std::async(std::launch::deferred,
                 [request, tally = tally_]() mutable {
                   const double t0 = now_s();
                   try {
                     request.wait();
                   } catch (...) {
                     tally->wait_s += now_s() - t0;
                     throw;
                   }
                   tally->wait_s += now_s() - t0;
                 })
          .share();
  return Request(std::move(done));
}

void TimingComm::all_reduce(std::span<float> buffer, ReduceOp op) {
  blocking([&] { inner_->all_reduce(buffer, op); });
}

void TimingComm::all_gather(std::span<const float> send,
                            std::span<float> recv) {
  blocking([&] { inner_->all_gather(send, recv); });
}

void TimingComm::all_gatherv(std::span<const float> send,
                             std::span<float> recv,
                             std::span<const std::size_t> recv_counts) {
  blocking([&] { inner_->all_gatherv(send, recv, recv_counts); });
}

void TimingComm::reduce_scatter(std::span<const float> send,
                                std::span<float> recv, ReduceOp op) {
  blocking([&] { inner_->reduce_scatter(send, recv, op); });
}

void TimingComm::reduce_scatterv(std::span<const float> send,
                                 std::span<float> recv,
                                 std::span<const std::size_t> counts,
                                 ReduceOp op) {
  blocking([&] { inner_->reduce_scatterv(send, recv, counts, op); });
}

void TimingComm::broadcast(std::span<float> buffer, int root) {
  blocking([&] { inner_->broadcast(buffer, root); });
}

void TimingComm::barrier() {
  blocking([&] { inner_->barrier(); });
}

Request TimingComm::iall_reduce(std::span<float> buffer, ReduceOp op,
                                CommPriority priority) {
  return timed(inner_->iall_reduce(buffer, op, priority));
}

Request TimingComm::iall_gather(std::span<const float> send,
                                std::span<float> recv, CommPriority priority) {
  return timed(inner_->iall_gather(send, recv, priority));
}

Request TimingComm::iall_gatherv(std::span<const float> send,
                                 std::span<float> recv,
                                 std::span<const std::size_t> recv_counts,
                                 CommPriority priority) {
  return timed(inner_->iall_gatherv(send, recv, recv_counts, priority));
}

Request TimingComm::ireduce_scatter(std::span<const float> send,
                                    std::span<float> recv, ReduceOp op,
                                    CommPriority priority) {
  return timed(inner_->ireduce_scatter(send, recv, op, priority));
}

Request TimingComm::ireduce_scatterv(std::span<const float> send,
                                     std::span<float> recv,
                                     std::span<const std::size_t> counts,
                                     ReduceOp op, CommPriority priority) {
  return timed(inner_->ireduce_scatterv(send, recv, counts, op, priority));
}

// Rank-local work on a progress lane, not a collective: forwarded untimed.
Request TimingComm::run_on_stream(std::function<void()> fn,
                                  CommPriority priority) {
  return inner_->run_on_stream(std::move(fn), priority);
}

std::unique_ptr<Communicator> TimingComm::split(int color, int key) {
  std::unique_ptr<Communicator> child = inner_->split(color, key);
  if (!child) return nullptr;
  return std::unique_ptr<Communicator>(
      new TimingComm(std::move(child), recording_));
}

TimingComm& as_timing(Communicator& comm) {
  auto* timing = dynamic_cast<TimingComm*>(&comm);
  if (!timing) throw std::logic_error("communicator is not a TimingComm");
  return *timing;
}

}  // namespace stepbench
