#include "net/comm_world.hpp"

#include <algorithm>

#include "obs/tracer.hpp"
#include "support/assert.hpp"

namespace nlh::net {

namespace {

/// Min-heap order on (deadline, send sequence): std::push_heap keeps the
/// *greatest* element on top, so the "later" message compares smaller.
struct delayed_later {
  template <class M>
  bool operator()(const M& a, const M& b) const {
    if (a.due != b.due) return a.due > b.due;
    return a.seq > b.seq;
  }
};

}  // namespace

comm_world::comm_world(int num_localities) {
  NLH_ASSERT(num_localities >= 1);
  boxes_.reserve(static_cast<std::size_t>(num_localities));
  for (int i = 0; i < num_localities; ++i) boxes_.push_back(std::make_unique<mailbox>());
}

void comm_world::send(int src, int dst, std::uint64_t tag, byte_buffer payload) {
  NLH_ASSERT(src >= 0 && src < size() && dst >= 0 && dst < size());
  NLH_TRACE_INSTANT("net/send", payload.size());
  if (delay_enabled_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(delay_m_);
    if (delay_model_) {
      const double d = delay_model_(src, dst, tag);
      if (d > 0.0) {
        delayed_msg m;
        m.due = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(d));
        m.seq = delay_seq_++;
        m.dst = dst;
        m.src = src;
        m.tag = tag;
        m.payload = std::move(payload);
        delayed_.push_back(std::move(m));
        std::push_heap(delayed_.begin(), delayed_.end(), delayed_later{});
        delay_cv_.notify_one();
        return;
      }
    }
  }
  NLH_TRACE_INSTANT("net/deliver", payload.size());
  boxes_[static_cast<std::size_t>(dst)]->deliver(src, tag, std::move(payload));
}

void comm_world::set_delay_model(delay_model model) {
  std::lock_guard<std::mutex> lk(delay_m_);
  delay_model_ = std::move(model);
  if (delay_model_ && !timer_.joinable())
    timer_ = std::thread([this] { timer_loop(); });
  // Stays true once a model was ever installed (clearing mid-flight must
  // keep send() checking delay_model_ under the lock).
  if (delay_model_) delay_enabled_.store(true, std::memory_order_release);
}

void comm_world::timer_loop() {
  std::unique_lock<std::mutex> lk(delay_m_);
  for (;;) {
    if (timer_stop_ && delayed_.empty()) return;
    if (delayed_.empty()) {
      delay_cv_.wait(lk);
      continue;
    }
    const auto due = delayed_.front().due;
    // On shutdown remaining messages deliver immediately (no parked
    // receive may be left dangling, and the destructor must not stall for
    // un-elapsed deadlines).
    if (!timer_stop_ && std::chrono::steady_clock::now() < due) {
      delay_cv_.wait_until(lk, due);
      continue;
    }
    std::pop_heap(delayed_.begin(), delayed_.end(), delayed_later{});
    delayed_msg m = std::move(delayed_.back());
    delayed_.pop_back();
    // Deliver outside the lock: fulfilling the parked receive runs its
    // continuations inline, which may send (and re-enter this mutex).
    lk.unlock();
    // Delayed delivery lands here, not at send(): the trace shows the
    // injected latency as the gap between net/send and net/deliver.
    NLH_TRACE_INSTANT("net/deliver", m.payload.size());
    boxes_[static_cast<std::size_t>(m.dst)]->deliver(m.src, m.tag,
                                                     std::move(m.payload));
    lk.lock();
  }
}

amt::future<byte_buffer> comm_world::recv(int dst, int src, std::uint64_t tag) {
  NLH_ASSERT(dst >= 0 && dst < size());
  return boxes_[static_cast<std::size_t>(dst)]->recv(src, tag);
}

mailbox& comm_world::box(int locality) {
  NLH_ASSERT(locality >= 0 && locality < size());
  return *boxes_[static_cast<std::size_t>(locality)];
}

comm_world::~comm_world() {
  {
    std::lock_guard<std::mutex> lk(delay_m_);
    timer_stop_ = true;
  }
  delay_cv_.notify_all();
  if (timer_.joinable()) timer_.join();
}

}  // namespace nlh::net
