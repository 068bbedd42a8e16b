#pragma once
///
/// \file comm_world.hpp
/// \brief K in-process localities wired by mailboxes: the distributed
/// substrate standing in for MPI + multiple physical nodes.
///
/// Each locality gets its own mailbox and (externally) its own thread pool.
/// Sends are byte-copies into the destination mailbox — the data really does
/// leave the sender's data structures as serialized bytes, so the ghost
/// exchange exercises the same pack/transfer/unpack path a cluster run
/// would. The world keeps no traffic counters: dist_solver counts its own
/// ghost bytes and messages (the `dist/ghost/*` metrics).
///

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/mailbox.hpp"

namespace nlh::net {

class comm_world {
 public:
  explicit comm_world(int num_localities);

  int size() const { return static_cast<int>(boxes_.size()); }

  /// Transfer `payload` from locality `src` to locality `dst` under `tag`
  /// (both must be in [0, size())). Delivery is immediate unless a delay
  /// model is installed (the virtual performance model lives in nlh::sim;
  /// the delay model below injects *real* wall-clock latency for overlap
  /// benches and tests).
  void send(int src, int dst, std::uint64_t tag, byte_buffer payload);

  /// Per-message delivery delay in seconds; <= 0 delivers inline.
  using delay_model = std::function<double(int src, int dst, std::uint64_t tag)>;

  /// Install a wall-clock delivery-delay model (the latency-injection seam
  /// the overlap bench and the injected-latency tests use): messages whose
  /// modeled delay is positive are handed to a background timer thread and
  /// delivered that many seconds after send() instead of inline. Delivery
  /// order between messages with distinct deadlines follows the deadlines,
  /// ties keep send order. Pass nullptr to restore inline delivery —
  /// messages already queued still deliver at their original deadline.
  void set_delay_model(delay_model model);

  /// Futurized receive on locality `dst` for a message from `src` with `tag`.
  amt::future<byte_buffer> recv(int dst, int src, std::uint64_t tag);

  mailbox& box(int locality);

  ~comm_world();

 private:
  std::vector<std::unique_ptr<mailbox>> boxes_;

  /// One message parked on the timer thread until its deadline.
  struct delayed_msg {
    std::chrono::steady_clock::time_point due;
    std::uint64_t seq;  ///< send order; breaks deadline ties deterministically
    int dst;
    int src;
    std::uint64_t tag;
    byte_buffer payload;
  };
  void timer_loop();

  std::mutex delay_m_;
  std::condition_variable delay_cv_;
  /// Fast-path gate: send() only touches delay_m_ when a model is (or has
  /// been) installed, so the normal inline-delivery path stays lock-free up
  /// to the per-mailbox lock.
  std::atomic<bool> delay_enabled_{false};
  delay_model delay_model_;          ///< guarded by delay_m_
  std::vector<delayed_msg> delayed_; ///< min-heap by (due, seq); guarded by delay_m_
  std::uint64_t delay_seq_ = 0;
  bool timer_stop_ = false;
  std::thread timer_;                ///< started lazily by set_delay_model
};

}  // namespace nlh::net
