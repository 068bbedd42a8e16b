#pragma once
///
/// \file hibernation.hpp
/// \brief LRU hibernation of parked sessions to cold storage.
///
/// The hibernation_manager holds the full roster of registered sessions
/// but lets only `resident_cap` of them keep their solver state in memory.
/// A session is *active* while a caller is stepping it (pinned, never
/// evicted) and *parked* between uses; when residents exceed the cap, the
/// least-recently-used parked session is snapshotted through its client
/// callback, compressed frames land in a checkpoint_store blob, and the
/// in-memory state is released. activate() transparently restores a
/// hibernated session before handing it back — the caller never sees the
/// round trip except in the `ckpt/*` latency histograms.
///
/// The manager is generic over what a "session" is: clients register two
/// callbacks per key (snapshot-and-release, restore-from-bytes).
/// svc::service_loop registers each persistent tenant's
/// `api::solver_handle::export_and_release` / `import_state` this way, so
/// this layer does not depend on the api facade. Callbacks run under the
/// manager mutex, so hibernates and restores serialize across sessions;
/// per-session callers must already be serialized (the service runs one
/// job per tenant key at a time) since activate/park pairs for one key
/// must not interleave.
///

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ckpt/store.hpp"
#include "net/serializer.hpp"
#include "obs/metrics.hpp"

namespace nlh::ckpt {

/// Knobs surfaced as `svc::service_options::hibernation`.
struct hibernation_options {
  bool enabled = false;
  /// Soft ceiling on in-memory sessions: parked residents are evicted
  /// down to it, active sessions are never evicted (so a burst of
  /// concurrently-active sessions may exceed it).
  std::size_t resident_cap = 8;

  /// Empty string when valid, else a description of the first problem.
  std::string validate() const;
};

/// What a snapshot callback returns: the encoded session state plus the
/// raw (pre-codec) byte count for the compression-ratio observables.
struct snapshot_blob {
  net::byte_buffer bytes;
  std::uint64_t raw_bytes = 0;
};

class hibernation_manager {
 public:
  struct callbacks {
    /// Serialize the session's full solver state into a blob (the passed
    /// buffer is pooled scratch to encode into) and release the in-memory
    /// state. Must leave the session restorable via `restore`.
    std::function<snapshot_blob(net::byte_buffer reuse)> snapshot_and_release;
    /// Rebuild in-memory state from bytes produced by snapshot_and_release.
    std::function<void(const net::byte_buffer&)> restore;
  };

  /// `opt` must validate clean; `opt.enabled` is the caller's business
  /// (a constructed manager always manages).
  explicit hibernation_manager(hibernation_options opt);
  ~hibernation_manager();

  hibernation_manager(const hibernation_manager&) = delete;
  hibernation_manager& operator=(const hibernation_manager&) = delete;

  /// Register a session (initially resident and parked). Parks may evict
  /// it later; registering can evict *other* parked sessions to honor the
  /// cap.
  void add_session(const std::string& key, callbacks cb);

  /// Pin `key` for use, restoring it from cold storage first when needed.
  /// Balance every activate() with park(); activates don't nest.
  void activate(const std::string& key);

  /// Unpin `key`; it becomes LRU-eligible and the cap is re-enforced.
  void park(const std::string& key);

  /// Hibernate `key` immediately. False when it is active, unknown or
  /// already cold.
  bool hibernate(const std::string& key);

  bool hibernated(const std::string& key) const;

  std::size_t session_count() const;
  std::size_t resident_count() const;
  std::size_t hibernated_count() const;

  const hibernation_options& options() const { return opt_; }
  checkpoint_store& store() { return *store_; }

  /// Lifetime totals for programmatic checks (bench gate, example summary).
  struct stats {
    std::uint64_t hibernates = 0;
    std::uint64_t restores = 0;
    std::uint64_t bytes_raw = 0;      ///< pre-codec bytes across hibernates
    std::uint64_t bytes_encoded = 0;  ///< blob bytes across hibernates
  };
  stats current_stats() const;

  /// Append the `ckpt/*` observables (counters, residency gauges,
  /// compression ratio, hibernate/restore latency histograms).
  void metrics_into(obs::metrics_snapshot& into) const;

 private:
  struct entry {
    std::string key;
    /// Flat blob name inside the store ("s<id>"): session keys are
    /// caller-chosen and may contain path separators the store rejects.
    std::string blob_key;
    callbacks cb;
    bool resident = true;
    bool active = false;
    std::uint64_t last_used = 0;  ///< LRU tick, bumped on activate/park
  };

  entry* find_locked(const std::string& key);
  const entry* find_locked(const std::string& key) const;
  void hibernate_locked(entry& e);
  void restore_locked(entry& e);
  void enforce_cap_locked();

  hibernation_options opt_;
  std::unique_ptr<checkpoint_store> store_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<entry>> entries_;
  std::uint64_t tick_ = 0;
  std::uint64_t next_blob_id_ = 0;

  obs::counter hibernates_;
  obs::counter restores_;
  obs::counter bytes_raw_;
  obs::counter bytes_encoded_;
  obs::histogram hibernate_s_;
  obs::histogram restore_s_;
};

}  // namespace nlh::ckpt
