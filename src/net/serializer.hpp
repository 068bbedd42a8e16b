#pragma once
///
/// \file serializer.hpp
/// \brief Byte-level archive for message payloads.
///
/// Ghost-zone exchanges between localities travel as flat byte buffers, the
/// way they would over MPI; the archive provides portable (little-endian
/// in-process) encode/decode of PODs, strings and vectors with a read cursor
/// that asserts on under/overrun.
///

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "support/assert.hpp"

namespace nlh::net {

using byte_buffer = std::vector<std::byte>;

/// Append-only encoder.
class archive_writer {
 public:
  archive_writer() = default;

  /// Start from a recycled buffer: the contents are discarded but the
  /// capacity is kept, so writers fed from a buffer pool (the ghost
  /// exchange) stop hitting the allocator once the pool is warm.
  explicit archive_writer(byte_buffer reuse) : buf_(std::move(reuse)) {
    buf_.clear();
  }

  template <class T>
  void write(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>, "write: non-POD needs an overload");
    const auto old = buf_.size();
    buf_.resize(old + sizeof(T));
    std::memcpy(buf_.data() + old, &v, sizeof(T));
  }

  void write(const std::string& s) {
    write(static_cast<std::uint64_t>(s.size()));
    const auto old = buf_.size();
    buf_.resize(old + s.size());
    std::memcpy(buf_.data() + old, s.data(), s.size());
  }

  /// Append `n` raw bytes with no length prefix — the escape hatch for
  /// self-delimiting payloads (the ckpt frame codec) that manage their own
  /// framing.
  void write_raw(const void* p, std::size_t n) {
    const auto old = buf_.size();
    buf_.resize(old + n);
    if (n) std::memcpy(buf_.data() + old, p, n);
  }

  /// Append a single byte (the varint hot path of the ckpt frame codec).
  void write_byte(std::uint8_t b) { buf_.push_back(static_cast<std::byte>(b)); }

  template <class T>
  void write(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write(static_cast<std::uint64_t>(v.size()));
    const auto old = buf_.size();
    buf_.resize(old + v.size() * sizeof(T));
    if (!v.empty()) std::memcpy(buf_.data() + old, v.data(), v.size() * sizeof(T));
  }

  byte_buffer take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  byte_buffer buf_;
};

/// Cursor-based decoder over a byte buffer.
class archive_reader {
 public:
  explicit archive_reader(const byte_buffer& buf) : buf_(buf) {}
  /// Deleted: the reader stores a reference; binding it to a temporary
  /// buffer would dangle after the full expression.
  explicit archive_reader(byte_buffer&&) = delete;

  template <class T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>);
    NLH_ASSERT_MSG(pos_ + sizeof(T) <= buf_.size(), "archive_reader: underrun");
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::string read_string() {
    const auto n = static_cast<std::size_t>(read<std::uint64_t>());
    NLH_ASSERT_MSG(n <= remaining(), "archive_reader: underrun");
    std::string s(reinterpret_cast<const char*>(buf_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  /// Read `n` raw bytes written by write_raw.
  void read_raw(void* p, std::size_t n) {
    NLH_ASSERT_MSG(n <= remaining(), "archive_reader: underrun");
    if (n) std::memcpy(p, buf_.data() + pos_, n);
    pos_ += n;
  }

  std::uint8_t read_byte() {
    NLH_ASSERT_MSG(pos_ < buf_.size(), "archive_reader: underrun");
    return static_cast<std::uint8_t>(buf_[pos_++]);
  }

  template <class T>
  std::vector<T> read_vector() {
    std::vector<T> v;
    read_vector_into(v);
    return v;
  }

  /// Decode into a caller-owned scratch vector, reusing its capacity — the
  /// pooled receive path of the ghost exchange (no allocation once warm).
  template <class T>
  void read_vector_into(std::vector<T>& out) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = static_cast<std::size_t>(read<std::uint64_t>());
    // Divide instead of multiplying: a corrupted/hostile length near 2^64
    // would wrap `n * sizeof(T)` and sail past an additive bounds check.
    NLH_ASSERT_MSG(n <= remaining() / sizeof(T), "archive_reader: underrun");
    out.resize(n);
    if (n) std::memcpy(out.data(), buf_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
  }

  std::size_t remaining() const { return buf_.size() - pos_; }
  bool exhausted() const { return pos_ == buf_.size(); }

 private:
  const byte_buffer& buf_;
  std::size_t pos_ = 0;
};

}  // namespace nlh::net
