#pragma once
///
/// \file tracer.hpp
/// \brief Low-overhead per-thread span recorder (docs/observability.md).
///
/// Every thread that records gets its own fixed-capacity ring of POD
/// `trace_event`s, registered with the process-wide `tracer` singleton on
/// first use. A ring that recorded an event is kept alive after its thread
/// exits (a snapshot taken later still sees its events); a ring that never
/// did leaves with its thread. A ring's capacity is fixed when it
/// registers; its event storage is allocated by the first recorded event,
/// so threads that only name themselves cost no storage. Rings wrap
/// silently — the newest `config::ring_capacity` events per thread
/// survive; `dropped()` counts the overwritten ones. Each ring is guarded by its own mutex, taken once
/// per recorded event; the lock is uncontended except while a snapshot is
/// being taken, so the steady-state cost per event is one timestamp read
/// plus one uncontended lock/unlock (measured in bench/micro_obs, gated
/// <= 5% of a traced solver step in CI).
///
/// The API is a pair:
///   - `span` — RAII guard emitting one complete ('X') event at scope exit
///   - `trace_instant` — point events ('i')
///
/// Event names must be string literals (or otherwise outlive the tracer):
/// events store the pointer, never a copy — this keeps the record path
/// allocation-free. The numeric `arg` rides into the exporter's `args`
/// object for per-event detail (SD id, byte count, job sequence, ...).
///
/// Use the `NLH_TRACE_*` macros rather than the classes directly.
///

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/config.hpp"

namespace nlh::obs {

/// One trace record. POD, 40 bytes; `name` points at a string literal.
struct trace_event {
  const char* name = nullptr;
  std::int64_t ts_ns = 0;   ///< nanoseconds since the tracer epoch
  std::int64_t dur_ns = 0;  ///< complete ('X') events only
  std::uint64_t arg = 0;    ///< free-form detail (SD id, bytes, seq, ...)
  std::uint32_t tid = 0;    ///< tracer-assigned thread id (dense from 1)
  char phase = 'i';         ///< 'X' complete, 'i' instant
};

/// Process-wide trace recorder; thread safe. All sessions/solvers record
/// into the one instance so a multi-tenant run exports as one timeline.
class tracer {
 public:
  static tracer& instance();

  /// Nanoseconds since the tracer epoch (process-stable monotonic base).
  std::int64_t now_ns() const;

  /// Record into the calling thread's ring (creates + registers it on
  /// first use). `ts_ns`/`tid` of `e` are filled in here.
  void record(const char* name, char phase, std::uint64_t arg,
              std::int64_t ts_ns, std::int64_t dur_ns);

  /// Label the calling thread's ring (shown as the Perfetto track name),
  /// registering the ring at the current capacity if it has none yet.
  void set_thread_name(std::string name);

  /// Copy out every ring's events, oldest first per thread, merged and
  /// sorted by timestamp. Safe while other threads keep recording.
  std::vector<trace_event> snapshot() const;

  /// tid -> name for every registered ring that was given one.
  std::vector<std::pair<std::uint32_t, std::string>> thread_names() const;

  /// Events lost to ring wraparound since construction / clear().
  std::uint64_t dropped() const;

  /// Bytes of event storage allocated across all rings (diagnostics): 0
  /// for rings that never recorded an event.
  std::size_t event_storage_bytes() const;

  /// Drop all recorded events (rings stay registered; tids are kept).
  void clear();

 private:
  tracer();

  struct ring;
  ring& local_ring();
  /// Thread exit: unregister `r` unless it recorded an event.
  void release(const std::shared_ptr<ring>& r);

  mutable std::mutex rings_m_;
  std::vector<std::shared_ptr<ring>> rings_;
  std::uint32_t next_tid_ = 1;
  std::int64_t epoch_ns_ = 0;
};

/// RAII guard: one complete event covering construction -> destruction.
/// Records nothing when tracing was disabled at construction.
class span {
 public:
  explicit span(const char* name, std::uint64_t arg = 0) {
    if (tracing_enabled()) open(name, arg);
  }
  ~span() {
    if (name_) close();
  }
  span(const span&) = delete;
  span& operator=(const span&) = delete;

 private:
  void open(const char* name, std::uint64_t arg);
  void close();

  const char* name_ = nullptr;
  std::uint64_t arg_ = 0;
  std::int64_t start_ns_ = 0;
};

/// Point event at the current time.
void trace_instant(const char* name, std::uint64_t arg = 0);

}  // namespace nlh::obs

// Instrumentation macros — the only spelling used inside solver/runtime
// code; each site costs one relaxed load and a branch while tracing is off.
#define NLH_OBS_CONCAT2(a, b) a##b
#define NLH_OBS_CONCAT(a, b) NLH_OBS_CONCAT2(a, b)

#define NLH_TRACE_SPAN(name) ::nlh::obs::span NLH_OBS_CONCAT(nlh_trace_span_, __LINE__)(name)
#define NLH_TRACE_SPAN_ARG(name, arg) \
  ::nlh::obs::span NLH_OBS_CONCAT(nlh_trace_span_, __LINE__)(name, (arg))
#define NLH_TRACE_INSTANT(name, arg) ::nlh::obs::trace_instant((name), (arg))
