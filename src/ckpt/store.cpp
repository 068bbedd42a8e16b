#include "ckpt/store.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/tracer.hpp"
#include "support/assert.hpp"

namespace nlh::ckpt {

namespace fs = std::filesystem;

namespace {

/// Keys become file names verbatim, so they must stay flat.
bool flat_key(const std::string& key) {
  return !key.empty() && key.find('/') == std::string::npos &&
         key.find('\\') == std::string::npos && key != "." && key != "..";
}

}  // namespace

checkpoint_store::checkpoint_store(fs::path directory)
    : dir_(std::move(directory)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  NLH_ASSERT_MSG(!ec && fs::is_directory(dir_), "checkpoint_store: cannot create directory");
}

checkpoint_store::~checkpoint_store() {
  std::error_code ec;
  for (const auto& [key, size] : entries_) fs::remove(blob_path(key), ec);
  // Fails, and leaves the directory, while it holds files of someone else.
  fs::remove(dir_, ec);
}

fs::path checkpoint_store::blob_path(const std::string& key) const {
  NLH_ASSERT_MSG(flat_key(key), "checkpoint_store: key must be a flat name");
  return dir_ / (key + ".ckpt");
}

void checkpoint_store::put(const std::string& key, net::byte_buffer bytes) {
  NLH_TRACE_SPAN_ARG("ckpt/store_put", static_cast<std::uint64_t>(bytes.size()));
  const auto path = blob_path(key);
  {
    // Plain stdio keeps this dependency-free; the blob is rewritten whole,
    // so a same-key reader can never observe a torn file under the
    // manager's per-session serialization.
    std::FILE* f = std::fopen(path.string().c_str(), "wb");
    NLH_ASSERT_MSG(f != nullptr, "checkpoint_store: cannot open blob for write");
    if (!bytes.empty()) {
      const auto written = std::fwrite(bytes.data(), 1, bytes.size(), f);
      NLH_ASSERT_MSG(written == bytes.size(), "checkpoint_store: short write");
    }
    std::fclose(f);
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = std::find_if(entries_.begin(), entries_.end(),
                           [&](const auto& e) { return e.first == key; });
    if (it == entries_.end())
      entries_.emplace_back(key, bytes.size());
    else
      it->second = bytes.size();
  }
  release_buffer(std::move(bytes));
}

void checkpoint_store::get(const std::string& key, net::byte_buffer& out) const {
  NLH_TRACE_SPAN("ckpt/store_get");
  {
    std::lock_guard<std::mutex> lk(mu_);
    const bool known = std::any_of(entries_.begin(), entries_.end(),
                                   [&](const auto& e) { return e.first == key; });
    NLH_ASSERT_MSG(known, "checkpoint_store: get of absent key");
  }
  const auto path = blob_path(key);
  std::FILE* f = std::fopen(path.string().c_str(), "rb");
  NLH_ASSERT_MSG(f != nullptr, "checkpoint_store: cannot open blob for read");
  std::fseek(f, 0, SEEK_END);
  const long len = std::ftell(f);
  NLH_ASSERT_MSG(len >= 0, "checkpoint_store: cannot stat blob");
  std::fseek(f, 0, SEEK_SET);
  out.resize(static_cast<std::size_t>(len));
  if (len > 0) {
    const auto got = std::fread(out.data(), 1, out.size(), f);
    NLH_ASSERT_MSG(got == out.size(), "checkpoint_store: short read");
  }
  std::fclose(f);
}

bool checkpoint_store::erase(const std::string& key) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = std::find_if(entries_.begin(), entries_.end(),
                           [&](const auto& e) { return e.first == key; });
    if (it == entries_.end()) return false;
    entries_.erase(it);
  }
  std::error_code ec;
  fs::remove(blob_path(key), ec);
  return true;
}

std::uint64_t checkpoint_store::bytes_on_disk() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t total = 0;
  for (const auto& [key, size] : entries_) total += size;
  return total;
}

net::byte_buffer checkpoint_store::acquire_buffer() const {
  std::lock_guard<std::mutex> lk(pool_mu_);
  if (pool_.empty()) return {};
  auto buf = std::move(pool_.back());
  pool_.pop_back();
  return buf;
}

void checkpoint_store::release_buffer(net::byte_buffer buf) const {
  buf.clear();
  std::lock_guard<std::mutex> lk(pool_mu_);
  pool_.push_back(std::move(buf));
}

}  // namespace nlh::ckpt
