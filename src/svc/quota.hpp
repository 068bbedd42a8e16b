#pragma once
///
/// \file quota.hpp
/// \brief Per-tenant policing for the `src/svc/` front-end: token-bucket
/// rate limiting plus an in-flight cap, with a three-way decision —
/// `admit`, `delay` or `shed` (docs/service.md).
///
/// Each tenant owns a token bucket (`rate_per_second` refill up to `burst`
/// capacity; one token per job) and an `max_in_flight` cap on jobs that
/// have been admitted but not yet finished. Policing one submission:
///
///   - in-flight at the cap            -> `shed` (fail fast — the tenant
///     already holds its full share of the service; queueing more for it
///     would just convert its overload into everyone's latency)
///   - a token available               -> `admit` (token debited)
///   - under the cap, bucket empty     -> `delay`: the job is *reserved*
///     the next future token (the bucket balance goes negative, so
///     successive delayed jobs line up at rate-spaced `ready_at` times)
///     and sits in its class queue until that time arrives.
///
/// The distinction matters for fairness: a tenant briefly over its rate is
/// smoothed (`delay`), not punished; only a tenant monopolizing in-flight
/// capacity is refused outright (`shed`). Time is passed in by the caller
/// (seconds on the service clock), which keeps the ledger deterministic
/// under test-controlled clocks.
///

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace nlh::svc {

/// What policing decided for one submission.
enum class policing_decision {
  admit,  ///< run as soon as the scheduler has a slot
  delay,  ///< rate-limited: eligible at decision::ready_at, not before
  shed,   ///< refused: fail the job fast with a distinct error
};

const char* to_string(policing_decision d);

/// Per-tenant limits; the service polices every tenant by
/// `service_options::default_quota`.
struct tenant_quota {
  double rate_per_second = 50.0;  ///< sustained jobs/second (> 0)
  double burst = 10.0;            ///< bucket capacity: max unspent credit (>= 1)
  int max_in_flight = 8;          ///< admitted-but-unfinished cap (>= 1)

  /// Every validation failure, one message each; empty = valid.
  std::vector<std::string> validate() const;
};

/// Thread-safe per-tenant bucket + in-flight ledger with `svc/quota/*`
/// observables.
class quota_ledger {
 public:
  /// Every tenant gets its own bucket and in-flight count, all sized by
  /// `limits`.
  explicit quota_ledger(tenant_quota limits = {});

  struct decision {
    policing_decision action = policing_decision::admit;
    /// When `action == delay`: the service-clock second at which the
    /// reserved token exists and the job becomes eligible to start.
    double ready_at = 0.0;
  };

  /// Police one submission at service-clock time `now_s`. On admit/delay
  /// the tenant's in-flight count is taken immediately (the job is
  /// committed); `release` must be called exactly once when it finishes
  /// (or is shed downstream, e.g. by deadline expiry).
  decision police(const std::string& tenant, double now_s);

  /// Finish one admitted/delayed job of `tenant`.
  void release(const std::string& tenant);

  /// Current in-flight count (0 for unknown tenants).
  int in_flight(const std::string& tenant) const;
  /// Tenants ever seen.
  std::size_t tenant_count() const;

  std::uint64_t admitted() const { return admitted_.value(); }
  std::uint64_t delayed() const { return delayed_.value(); }
  std::uint64_t shed() const { return shed_.value(); }

  /// Append the `svc/quota/*` view: admitted/delayed/shed counters, tenant
  /// gauge and the distribution of imposed delays.
  void metrics_into(obs::metrics_snapshot& snap) const;

 private:
  struct bucket {
    double tokens = 0.0;       ///< may go negative: delayed reservations
    double last_refill = 0.0;  ///< service-clock second of the last refill
    int in_flight = 0;
  };

  tenant_quota limits_;
  mutable std::mutex mu_;
  std::map<std::string, bucket> buckets_;
  obs::counter admitted_;
  obs::counter delayed_;
  obs::counter shed_;
  obs::histogram delay_hist_;  ///< imposed delay (ready_at - now) in seconds
};

}  // namespace nlh::svc
