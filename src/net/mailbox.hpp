#pragma once
///
/// \file mailbox.hpp
/// \brief Per-locality tagged message inbox with futurized receive.
///
/// `recv(src, tag)` returns a future that is fulfilled when the matching
/// message is delivered — the arrival order of deliver/recv does not matter
/// (messages that arrive early are parked; receives posted early park a
/// promise). Matching is exact on (source locality, tag); the distributed
/// solver encodes (timestep, subdomain) into the tag.
///

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>

#include "amt/future.hpp"
#include "net/serializer.hpp"

namespace nlh::net {

class mailbox {
 public:
  /// Deliver a message from `src` with `tag`; fulfills a parked receive if
  /// one exists, otherwise queues the payload.
  void deliver(int src, std::uint64_t tag, byte_buffer payload);

  /// Futurized receive for the (src, tag) pair.
  amt::future<byte_buffer> recv(int src, std::uint64_t tag);

  /// Number of parked messages not yet matched by a recv (diagnostics).
  std::size_t pending_messages() const;

  /// Number of parked receives not yet matched by a deliver (diagnostics).
  std::size_t pending_receives() const;

  /// (src, tag) keys with parked messages or receives (diagnostics). A key
  /// is dropped as soon as its last message or receive is matched, so this
  /// is 0 whenever nothing is pending.
  std::size_t tracked_keys() const;

 private:
  using key = std::pair<int, std::uint64_t>;

  mutable std::mutex m_;
  std::map<key, std::deque<byte_buffer>> arrived_;
  std::map<key, std::deque<amt::promise<byte_buffer>>> waiting_;
};

}  // namespace nlh::net
