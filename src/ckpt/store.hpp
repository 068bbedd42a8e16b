#pragma once
///
/// \file store.hpp
/// \brief Cold storage for encoded checkpoint blobs.
///
/// The checkpoint_store owns a directory of key-named blob files and a
/// recirculating byte-buffer pool: every put() consumes a buffer the caller
/// usually obtained from acquire_buffer() (so an `archive_writer(reuse)`
/// keeps its warm capacity), and every get() decodes through a pooled
/// buffer the caller hands back with release_buffer(). Once the pool is
/// warm, a hibernate/restore cycle allocates nothing on the byte-buffer
/// side — the NVMSorting pooled-partition shape applied to session state.
///
/// Thread-safe; keys are flat names (no path separators). Blobs are
/// scratch state: erase() removes one, and destruction removes every blob
/// still stored.
///

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "net/serializer.hpp"

namespace nlh::ckpt {

class checkpoint_store {
 public:
  /// Opens (creating if needed) `directory` as the blob root.
  explicit checkpoint_store(std::filesystem::path directory);
  ~checkpoint_store();

  checkpoint_store(const checkpoint_store&) = delete;
  checkpoint_store& operator=(const checkpoint_store&) = delete;

  /// Write `bytes` as the blob for `key`, replacing any previous blob.
  /// The buffer is recycled into the pool after the write.
  void put(const std::string& key, net::byte_buffer bytes);

  /// Read the blob for `key` into `out` (capacity reused). Asserts the
  /// key exists — callers track membership themselves.
  void get(const std::string& key, net::byte_buffer& out) const;

  /// Drop the blob for `key`; false when absent.
  bool erase(const std::string& key);

  /// Sum of stored blob sizes in bytes (as written, i.e. encoded).
  std::uint64_t bytes_on_disk() const;

  /// Recirculating buffer pool: feed acquire_buffer() into
  /// `archive_writer(reuse)` (or use as a get() target), hand the storage
  /// back with release_buffer() when done.
  net::byte_buffer acquire_buffer() const;
  void release_buffer(net::byte_buffer buf) const;

 private:
  std::filesystem::path blob_path(const std::string& key) const;

  std::filesystem::path dir_;

  mutable std::mutex mu_;
  // key -> encoded size, the authoritative membership map (bytes_on_disk
  // without stat()ing, and the purge list on close).
  std::vector<std::pair<std::string, std::uint64_t>> entries_;

  mutable std::mutex pool_mu_;
  mutable std::vector<net::byte_buffer> pool_;
};

}  // namespace nlh::ckpt
