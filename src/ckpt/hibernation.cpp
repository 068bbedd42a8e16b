#include "ckpt/hibernation.hpp"

#include <unistd.h>

#include <atomic>
#include <sstream>

#include "obs/tracer.hpp"
#include "support/assert.hpp"
#include "support/stopwatch.hpp"

namespace nlh::ckpt {

namespace {

std::filesystem::path scratch_directory() {
  // One unique directory per manager instance: pid disambiguates across
  // processes sharing a temp root, the counter across managers in-process.
  static std::atomic<std::uint64_t> seq{0};
  std::ostringstream name;
  name << "nlh-hibernate-" << ::getpid() << "-" << seq.fetch_add(1);
  return std::filesystem::temp_directory_path() / name.str();
}

}  // namespace

std::string hibernation_options::validate() const {
  if (resident_cap == 0) return "hibernation.resident_cap must be >= 1";
  return {};
}

hibernation_manager::hibernation_manager(hibernation_options opt)
    : opt_(std::move(opt)),
      hibernate_s_(obs::histogram_options{1e-7, 1e2, 8}),
      restore_s_(obs::histogram_options{1e-7, 1e2, 8}) {
  const auto err = opt_.validate();
  NLH_ASSERT_MSG(err.empty(), "hibernation_manager: invalid options");
  store_ = std::make_unique<checkpoint_store>(scratch_directory());
}

hibernation_manager::~hibernation_manager() = default;

hibernation_manager::entry* hibernation_manager::find_locked(const std::string& key) {
  for (auto& e : entries_)
    if (e->key == key) return e.get();
  return nullptr;
}

const hibernation_manager::entry* hibernation_manager::find_locked(
    const std::string& key) const {
  for (const auto& e : entries_)
    if (e->key == key) return e.get();
  return nullptr;
}

void hibernation_manager::add_session(const std::string& key, callbacks cb) {
  NLH_ASSERT_MSG(cb.snapshot_and_release && cb.restore,
                 "hibernation_manager: both callbacks required");
  std::lock_guard<std::mutex> lk(mu_);
  NLH_ASSERT_MSG(find_locked(key) == nullptr,
                 "hibernation_manager: duplicate session key");
  auto e = std::make_unique<entry>();
  e->key = key;
  e->blob_key = "s" + std::to_string(next_blob_id_++);
  e->cb = std::move(cb);
  e->last_used = ++tick_;
  entries_.push_back(std::move(e));
  enforce_cap_locked();
}

void hibernation_manager::activate(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  entry* e = find_locked(key);
  NLH_ASSERT_MSG(e != nullptr, "hibernation_manager: activate of unknown key");
  NLH_ASSERT_MSG(!e->active, "hibernation_manager: activate does not nest");
  if (!e->resident) restore_locked(*e);
  e->active = true;
  e->last_used = ++tick_;
  enforce_cap_locked();
}

void hibernation_manager::park(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  entry* e = find_locked(key);
  NLH_ASSERT_MSG(e != nullptr, "hibernation_manager: park of unknown key");
  e->active = false;
  e->last_used = ++tick_;
  enforce_cap_locked();
}

bool hibernation_manager::hibernate(const std::string& key) {
  std::lock_guard<std::mutex> lk(mu_);
  entry* e = find_locked(key);
  if (e == nullptr || e->active || !e->resident) return false;
  hibernate_locked(*e);
  return true;
}

bool hibernation_manager::hibernated(const std::string& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  const entry* e = find_locked(key);
  return e != nullptr && !e->resident;
}

std::size_t hibernation_manager::session_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return entries_.size();
}

std::size_t hibernation_manager::resident_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (const auto& e : entries_) n += e->resident ? 1 : 0;
  return n;
}

std::size_t hibernation_manager::hibernated_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (const auto& e : entries_) n += e->resident ? 0 : 1;
  return n;
}

void hibernation_manager::hibernate_locked(entry& e) {
  NLH_TRACE_SPAN("ckpt/hibernate");
  support::stopwatch sw;
  snapshot_blob blob = e.cb.snapshot_and_release(store_->acquire_buffer());
  bytes_raw_.add(blob.raw_bytes);
  bytes_encoded_.add(blob.bytes.size());
  store_->put(e.blob_key, std::move(blob.bytes));
  e.resident = false;
  hibernates_.add(1);
  hibernate_s_.record(sw.elapsed_s());
}

void hibernation_manager::restore_locked(entry& e) {
  NLH_TRACE_SPAN("ckpt/restore");
  support::stopwatch sw;
  auto buf = store_->acquire_buffer();
  store_->get(e.blob_key, buf);
  e.cb.restore(buf);
  store_->release_buffer(std::move(buf));
  // The blob is stale the moment the session steps again; drop it so
  // bytes_on_disk counts genuinely cold sessions only.
  store_->erase(e.blob_key);
  e.resident = true;
  restores_.add(1);
  restore_s_.record(sw.elapsed_s());
}

void hibernation_manager::enforce_cap_locked() {
  for (;;) {
    std::size_t residents = 0;
    entry* victim = nullptr;
    for (auto& e : entries_) {
      if (!e->resident) continue;
      ++residents;
      if (e->active) continue;  // pinned
      if (victim == nullptr || e->last_used < victim->last_used) victim = e.get();
    }
    if (residents <= opt_.resident_cap || victim == nullptr) return;
    hibernate_locked(*victim);
  }
}

hibernation_manager::stats hibernation_manager::current_stats() const {
  return {hibernates_.value(), restores_.value(), bytes_raw_.value(),
          bytes_encoded_.value()};
}

void hibernation_manager::metrics_into(obs::metrics_snapshot& into) const {
  into.add_counter("ckpt/hibernates", hibernates_.value());
  into.add_counter("ckpt/restores", restores_.value());
  into.add_counter("ckpt/bytes_raw", bytes_raw_.value());
  into.add_counter("ckpt/bytes_encoded", bytes_encoded_.value());
  const auto raw = bytes_raw_.value();
  const auto enc = bytes_encoded_.value();
  into.add_gauge("ckpt/compression_ratio",
                 enc ? static_cast<double>(raw) / static_cast<double>(enc) : 0.0);
  into.add_gauge("ckpt/sessions", static_cast<double>(session_count()));
  into.add_gauge("ckpt/resident", static_cast<double>(resident_count()));
  into.add_gauge("ckpt/hibernated", static_cast<double>(hibernated_count()));
  into.add_gauge("ckpt/bytes_on_disk", static_cast<double>(store_->bytes_on_disk()));
  into.add_histogram("ckpt/hibernate_seconds", hibernate_s_.summary());
  into.add_histogram("ckpt/restore_seconds", restore_s_.summary());
}

}  // namespace nlh::ckpt
