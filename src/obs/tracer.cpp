///
/// \file tracer.cpp
/// \brief Tracer implementation: per-thread rings, registration, snapshot
/// merge, and the runtime config globals.
///

#include "obs/tracer.hpp"

#include <algorithm>
#include <chrono>

namespace nlh::obs {

namespace detail {
std::atomic<bool> tracing_enabled{false};
}  // namespace detail

namespace {

std::mutex config_m;
config active_config;

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void set_tracing_enabled(bool on) {
  detail::tracing_enabled.store(on, std::memory_order_relaxed);
}

void configure(const config& cfg) {
  std::lock_guard<std::mutex> lk(config_m);
  active_config = cfg;
  if (active_config.ring_capacity < 16) active_config.ring_capacity = 16;
}

config current_config() {
  std::lock_guard<std::mutex> lk(config_m);
  return active_config;
}

/// Fixed-capacity event ring of one thread. `head` is the next write slot;
/// once `total > capacity` the ring has wrapped and the oldest events live
/// at `head`. The capacity is fixed when the ring registers, but `ev` is
/// only allocated by the first record(): every pool worker names its ring
/// whether or not tracing is on. A ring whose `ev` is still empty when its
/// thread exits is unregistered then; the others live until process exit.
/// The mutex serializes the owning writer against snapshot readers;
/// writers from other threads never touch it.
struct tracer::ring {
  ring(std::size_t cap, std::uint32_t id) : capacity(cap), tid(id) {}
  mutable std::mutex m;
  std::vector<trace_event> ev;  ///< empty until the first record()
  std::size_t capacity = 0;
  std::size_t head = 0;
  std::uint64_t total = 0;  ///< events ever recorded into this ring
  std::uint32_t tid = 0;
  std::string name;
};

tracer::tracer() : epoch_ns_(steady_ns()) {}

tracer& tracer::instance() {
  static tracer t;
  return t;
}

std::int64_t tracer::now_ns() const { return steady_ns() - epoch_ns_; }

tracer::ring& tracer::local_ring() {
  // One cached ring per (thread, process): the tracer is a singleton, so a
  // plain thread_local holder suffices. The registry keeps its own
  // reference, so events of exited threads survive into later snapshots;
  // the holder's destructor drops a ring that never recorded, so threads
  // that only named themselves leave nothing behind.
  struct holder {
    std::shared_ptr<ring> r;
    ~holder() {
      if (r) tracer::instance().release(r);
    }
  };
  thread_local holder tls;
  if (!tls.r) {
    const auto cap = current_config().ring_capacity;
    std::lock_guard<std::mutex> lk(rings_m_);
    tls.r = std::make_shared<ring>(cap, next_tid_++);
    rings_.push_back(tls.r);
  }
  return *tls.r;
}

void tracer::release(const std::shared_ptr<ring>& r) {
  // Same lock order as thread_names(): the registry, then the ring.
  std::lock_guard<std::mutex> lk(rings_m_);
  std::lock_guard<std::mutex> rlk(r->m);
  if (r->ev.empty()) rings_.erase(std::find(rings_.begin(), rings_.end(), r));
}

void tracer::record(const char* name, char phase, std::uint64_t arg,
                    std::int64_t ts_ns, std::int64_t dur_ns) {
  auto& r = local_ring();
  std::lock_guard<std::mutex> lk(r.m);
  if (r.ev.empty()) r.ev.resize(r.capacity);
  auto& e = r.ev[r.head];
  e.name = name;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  e.arg = arg;
  e.tid = r.tid;
  e.phase = phase;
  r.head = (r.head + 1) % r.capacity;
  ++r.total;
}

void tracer::set_thread_name(std::string name) {
  auto& r = local_ring();
  std::lock_guard<std::mutex> lk(r.m);
  r.name = std::move(name);
}

std::vector<trace_event> tracer::snapshot() const {
  std::vector<std::shared_ptr<ring>> rings;
  {
    std::lock_guard<std::mutex> lk(rings_m_);
    rings = rings_;
  }
  std::vector<trace_event> out;
  for (const auto& rp : rings) {
    std::lock_guard<std::mutex> lk(rp->m);
    const std::size_t cap = rp->capacity;
    const std::size_t n = rp->total < cap ? static_cast<std::size_t>(rp->total) : cap;
    // Oldest first: a wrapped ring's oldest event sits at head.
    const std::size_t start = rp->total < cap ? 0 : rp->head;
    for (std::size_t i = 0; i < n; ++i) out.push_back(rp->ev[(start + i) % cap]);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const trace_event& a, const trace_event& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  return out;
}

std::vector<std::pair<std::uint32_t, std::string>> tracer::thread_names() const {
  std::vector<std::pair<std::uint32_t, std::string>> out;
  std::lock_guard<std::mutex> lk(rings_m_);
  for (const auto& rp : rings_) {
    std::lock_guard<std::mutex> rlk(rp->m);
    if (!rp->name.empty()) out.emplace_back(rp->tid, rp->name);
  }
  return out;
}

std::uint64_t tracer::dropped() const {
  std::uint64_t lost = 0;
  std::lock_guard<std::mutex> lk(rings_m_);
  for (const auto& rp : rings_) {
    std::lock_guard<std::mutex> rlk(rp->m);
    const auto cap = static_cast<std::uint64_t>(rp->capacity);
    if (rp->total > cap) lost += rp->total - cap;
  }
  return lost;
}

std::size_t tracer::event_storage_bytes() const {
  std::size_t bytes = 0;
  std::lock_guard<std::mutex> lk(rings_m_);
  for (const auto& rp : rings_) {
    std::lock_guard<std::mutex> rlk(rp->m);
    bytes += rp->ev.capacity() * sizeof(trace_event);
  }
  return bytes;
}

void tracer::clear() {
  std::lock_guard<std::mutex> lk(rings_m_);
  for (const auto& rp : rings_) {
    std::lock_guard<std::mutex> rlk(rp->m);
    rp->head = 0;
    rp->total = 0;
  }
}

void span::open(const char* name, std::uint64_t arg) {
  name_ = name;
  arg_ = arg;
  start_ns_ = tracer::instance().now_ns();
}

void span::close() {
  auto& t = tracer::instance();
  // Spans opened while enabled always close: a toggle mid-span must not
  // leave an unmatched event, so `close` checks name_, not the flag.
  t.record(name_, 'X', arg_, start_ns_, t.now_ns() - start_ns_);
}

void trace_instant(const char* name, std::uint64_t arg) {
  if (!tracing_enabled()) return;
  auto& t = tracer::instance();
  t.record(name, 'i', arg, t.now_ns(), 0);
}

}  // namespace nlh::obs
