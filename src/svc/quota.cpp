///
/// \file quota.cpp
/// \brief quota_ledger: token-bucket refill, three-way policing, in-flight
/// accounting and the svc/quota/* metrics view.
///

#include "svc/quota.hpp"

#include <algorithm>

namespace nlh::svc {

const char* to_string(policing_decision d) {
  switch (d) {
    case policing_decision::admit:
      return "admit";
    case policing_decision::delay:
      return "delay";
    case policing_decision::shed:
      return "shed";
  }
  return "unknown";
}

std::vector<std::string> tenant_quota::validate() const {
  std::vector<std::string> errs;
  if (!(rate_per_second > 0.0))
    errs.push_back("tenant_quota.rate_per_second: must be > 0 (got " +
                   std::to_string(rate_per_second) + ")");
  if (!(burst >= 1.0))
    errs.push_back("tenant_quota.burst: must be >= 1 (one whole token; got " +
                   std::to_string(burst) + ")");
  if (max_in_flight < 1)
    errs.push_back("tenant_quota.max_in_flight: must be >= 1 (got " +
                   std::to_string(max_in_flight) + ")");
  return errs;
}

quota_ledger::quota_ledger(tenant_quota limits) : limits_(limits) {}

quota_ledger::decision quota_ledger::police(const std::string& tenant,
                                            double now_s) {
  std::lock_guard<std::mutex> lk(mu_);
  // A fresh tenant starts with a full bucket: its first burst up to
  // `burst` jobs is admitted without delay.
  bucket& b =
      buckets_.try_emplace(tenant, bucket{limits_.burst, now_s, 0})
          .first->second;
  // Refill up to capacity; never clamp a negative balance upward past what
  // the elapsed time earned — outstanding reservations must stay paid for.
  b.tokens = std::min(limits_.burst, b.tokens + (now_s - b.last_refill) *
                                                    limits_.rate_per_second);
  b.last_refill = now_s;

  if (b.in_flight >= limits_.max_in_flight) {
    shed_.add();
    return {policing_decision::shed, 0.0};
  }
  ++b.in_flight;
  if (b.tokens >= 1.0) {
    b.tokens -= 1.0;
    admitted_.add();
    return {policing_decision::admit, 0.0};
  }
  // Reserve the next future token: the deficit below one whole token,
  // earned back at rate_per_second. Successive delayed jobs drive tokens
  // further negative, so their ready_at times are spaced 1/rate apart —
  // the open-loop burst is smoothed, not reordered.
  const double wait = (1.0 - b.tokens) / limits_.rate_per_second;
  b.tokens -= 1.0;
  delayed_.add();
  delay_hist_.record(wait);
  return {policing_decision::delay, now_s + wait};
}

void quota_ledger::release(const std::string& tenant) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = buckets_.find(tenant);
  if (it != buckets_.end() && it->second.in_flight > 0)
    --it->second.in_flight;
}

int quota_ledger::in_flight(const std::string& tenant) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = buckets_.find(tenant);
  return it == buckets_.end() ? 0 : it->second.in_flight;
}

std::size_t quota_ledger::tenant_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return buckets_.size();
}

void quota_ledger::metrics_into(obs::metrics_snapshot& snap) const {
  snap.add_counter("svc/quota/admitted", admitted_.value());
  snap.add_counter("svc/quota/delayed", delayed_.value());
  snap.add_counter("svc/quota/shed", shed_.value());
  snap.add_gauge("svc/quota/tenants", static_cast<double>(tenant_count()));
  snap.add_histogram("svc/quota/delay_seconds", delay_hist_.summary());
}

}  // namespace nlh::svc
