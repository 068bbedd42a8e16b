// Tests for the serializer, mailbox and comm_world distributed substrate.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <thread>

#include "net/comm_world.hpp"
#include "net/mailbox.hpp"
#include "net/serializer.hpp"

namespace net = nlh::net;

// ------------------------------------------------------------ serializer ----

TEST(Serializer, PodRoundTrip) {
  net::archive_writer w;
  w.write(42);
  w.write(3.25);
  w.write(static_cast<std::uint64_t>(1) << 40);
  const auto buf = w.take();
  net::archive_reader r(buf);
  EXPECT_EQ(r.read<int>(), 42);
  EXPECT_DOUBLE_EQ(r.read<double>(), 3.25);
  EXPECT_EQ(r.read<std::uint64_t>(), static_cast<std::uint64_t>(1) << 40);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serializer, StringRoundTrip) {
  net::archive_writer w;
  w.write(std::string("ghost zone"));
  w.write(std::string(""));
  const auto buf = w.take();
  net::archive_reader r(buf);
  EXPECT_EQ(r.read_string(), "ghost zone");
  EXPECT_EQ(r.read_string(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST(Serializer, VectorRoundTrip) {
  net::archive_writer w;
  std::vector<double> strip{1.0, 2.5, -3.0};
  w.write(strip);
  w.write(std::vector<int>{});
  const auto buf = w.take();
  net::archive_reader r(buf);
  EXPECT_EQ(r.read_vector<double>(), strip);
  EXPECT_TRUE(r.read_vector<int>().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(Serializer, MixedPayload) {
  net::archive_writer w;
  w.write(7);
  w.write(std::vector<float>{1.5f, 2.5f});
  w.write(std::string("tag"));
  const auto buf = w.take();
  net::archive_reader r(buf);
  EXPECT_EQ(r.read<int>(), 7);
  const auto v = r.read_vector<float>();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_FLOAT_EQ(v[1], 2.5f);
  EXPECT_EQ(r.read_string(), "tag");
}

TEST(Serializer, RemainingTracksCursor) {
  net::archive_writer w;
  w.write(1);
  w.write(2);
  const auto buf = w.take();
  net::archive_reader r(buf);
  EXPECT_EQ(r.remaining(), 2 * sizeof(int));
  r.read<int>();
  EXPECT_EQ(r.remaining(), sizeof(int));
}

// --------------------------------------------- serializer property/fuzz ----

TEST(Serializer, RawAndByteRoundTrip) {
  net::archive_writer w;
  const char payload[] = {'g', 'h', 'o', 's', 't'};
  w.write_byte(0x7f);
  w.write_raw(payload, sizeof(payload));
  w.write_byte(0xff);
  w.write_raw(nullptr, 0);  // zero-length raw append is a no-op
  const auto buf = w.take();
  ASSERT_EQ(buf.size(), sizeof(payload) + 2);
  net::archive_reader r(buf);
  EXPECT_EQ(r.read_byte(), 0x7f);
  char back[sizeof(payload)];
  r.read_raw(back, sizeof(back));
  EXPECT_EQ(std::memcmp(back, payload, sizeof(payload)), 0);
  EXPECT_EQ(r.read_byte(), 0xff);
  r.read_raw(nullptr, 0);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serializer, PropertyRandomVectorsRoundTrip) {
  // Deterministic fuzz: random-length vectors of mixed element types,
  // written in random interleavings, must read back exactly and leave the
  // cursor exhausted.
  std::mt19937_64 rng(20210521);
  std::uniform_int_distribution<int> len(0, 200);
  std::uniform_real_distribution<double> val(-1e12, 1e12);
  for (int round = 0; round < 50; ++round) {
    std::vector<double> d(static_cast<std::size_t>(len(rng)));
    for (auto& v : d) v = val(rng);
    std::vector<int> i(static_cast<std::size_t>(len(rng)));
    for (auto& v : i) v = static_cast<int>(rng());
    std::string s(static_cast<std::size_t>(len(rng)), '\0');
    for (auto& c : s) c = static_cast<char>('a' + rng() % 26);

    net::archive_writer w;
    w.write(d);
    w.write(s);
    w.write(i);
    w.write(static_cast<std::uint64_t>(round));
    const auto buf = w.take();
    net::archive_reader r(buf);
    EXPECT_EQ(r.read_vector<double>(), d);
    EXPECT_EQ(r.read_string(), s);
    EXPECT_EQ(r.read_vector<int>(), i);
    EXPECT_EQ(r.read<std::uint64_t>(), static_cast<std::uint64_t>(round));
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(Serializer, PooledReuseKeepsCapacityAndRoundTrips) {
  // The archive_writer(reuse) path: recycled buffers are cleared but keep
  // their capacity, and repeated cycles round-trip without drift.
  net::byte_buffer recycled;
  std::size_t warm_capacity = 0;
  for (int cycle = 0; cycle < 5; ++cycle) {
    net::archive_writer w(std::move(recycled));
    std::vector<double> strip(64, 1.5 * cycle);
    w.write(strip);
    w.write(std::string("cycle-") + std::to_string(cycle));
    recycled = w.take();
    if (cycle == 0)
      warm_capacity = recycled.capacity();
    else
      EXPECT_GE(recycled.capacity(), warm_capacity);  // never shrinks
    net::archive_reader r(recycled);
    EXPECT_EQ(r.read_vector<double>(), strip);
    EXPECT_EQ(r.read_string(), "cycle-" + std::to_string(cycle));
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(Serializer, TruncatedInputsDieWithUnderrun) {
  net::archive_writer w;
  w.write(std::vector<double>{1.0, 2.0, 3.0});
  w.write(std::string("tail"));
  const auto full = w.take();

  // Chop the buffer at every prefix length: any read past the cut must
  // abort with the underrun diagnostic, never scribble or wrap.
  const net::byte_buffer cut_vec(full.begin(), full.begin() + 12);
  net::archive_reader rv(cut_vec);
  EXPECT_DEATH(rv.read_vector<double>(), "underrun");

  const net::byte_buffer cut_str(full.begin(), full.end() - 2);
  net::archive_reader rs(cut_str);
  rs.read_vector<double>();
  EXPECT_DEATH(rs.read_string(), "underrun");

  const net::byte_buffer empty;
  net::archive_reader re(empty);
  EXPECT_DEATH(re.read_byte(), "underrun");
  char sink[4];
  net::archive_reader rr(empty);
  EXPECT_DEATH(rr.read_raw(sink, sizeof(sink)), "underrun");
}

TEST(Serializer, HostileVectorLengthCannotOverflowTheBoundsCheck) {
  // A corrupted length near 2^64 would wrap `n * sizeof(T)` past an
  // additive bounds check; the reader divides instead and must die.
  net::archive_writer w;
  w.write(std::numeric_limits<std::uint64_t>::max() - 2);
  w.write(3.0);  // a few real bytes so remaining() > 0
  const auto buf = w.take();
  net::archive_reader r(buf);
  EXPECT_DEATH(r.read_vector<double>(), "underrun");
}

// --------------------------------------------------------------- mailbox ----

net::byte_buffer make_payload(int v) {
  net::archive_writer w;
  w.write(v);
  return w.take();
}

int read_payload(const net::byte_buffer& b) {
  net::archive_reader r(b);
  return r.read<int>();
}

TEST(Mailbox, DeliverThenRecv) {
  net::mailbox mb;
  mb.deliver(1, 100, make_payload(5));
  auto f = mb.recv(1, 100);
  ASSERT_TRUE(f.is_ready());
  EXPECT_EQ(read_payload(f.get()), 5);
}

TEST(Mailbox, RecvThenDeliver) {
  net::mailbox mb;
  auto f = mb.recv(2, 7);
  EXPECT_FALSE(f.is_ready());
  mb.deliver(2, 7, make_payload(9));
  ASSERT_TRUE(f.is_ready());
  EXPECT_EQ(read_payload(f.get()), 9);
}

TEST(Mailbox, TagMismatchDoesNotMatch) {
  net::mailbox mb;
  auto f = mb.recv(1, 100);
  mb.deliver(1, 101, make_payload(1));  // different tag
  mb.deliver(2, 100, make_payload(2));  // different source
  EXPECT_FALSE(f.is_ready());
  EXPECT_EQ(mb.pending_messages(), 2u);
  mb.deliver(1, 100, make_payload(3));
  EXPECT_EQ(read_payload(f.get()), 3);
}

TEST(Mailbox, FifoPerKey) {
  net::mailbox mb;
  mb.deliver(0, 5, make_payload(1));
  mb.deliver(0, 5, make_payload(2));
  EXPECT_EQ(read_payload(mb.recv(0, 5).get()), 1);
  EXPECT_EQ(read_payload(mb.recv(0, 5).get()), 2);
}

TEST(Mailbox, MultipleWaiters) {
  net::mailbox mb;
  auto f1 = mb.recv(0, 1);
  auto f2 = mb.recv(0, 1);
  EXPECT_EQ(mb.pending_receives(), 2u);
  mb.deliver(0, 1, make_payload(10));
  mb.deliver(0, 1, make_payload(20));
  EXPECT_EQ(read_payload(f1.get()), 10);
  EXPECT_EQ(read_payload(f2.get()), 20);
  EXPECT_EQ(mb.pending_receives(), 0u);
}

TEST(Mailbox, CrossThreadDelivery) {
  net::mailbox mb;
  auto f = mb.recv(3, 42);
  std::thread t([&] { mb.deliver(3, 42, make_payload(77)); });
  EXPECT_EQ(read_payload(f.get()), 77);
  t.join();
}

TEST(Mailbox, MatchedKeysLeaveNoTrace) {
  // The distributed solver uses each ghost tag once, so every matched key
  // must be forgotten — in either arrival order — or the mailbox grows a
  // map node per message forever.
  net::mailbox mb;
  constexpr int kTags = 10000;
  std::uint64_t sum = 0;
  for (int t = 0; t < kTags; ++t) {
    const auto tag = static_cast<std::uint64_t>(t);
    auto f = mb.recv(t % 3, tag);  // recv first
    mb.deliver(t % 3, tag, make_payload(t));
    sum += static_cast<std::uint64_t>(read_payload(f.get()));
  }
  EXPECT_EQ(mb.tracked_keys(), 0u);
  for (int t = 0; t < kTags; ++t) {
    const auto tag = static_cast<std::uint64_t>(kTags + t);
    mb.deliver(t % 3, tag, make_payload(t));  // deliver first
    sum += static_cast<std::uint64_t>(read_payload(mb.recv(t % 3, tag).get()));
  }
  EXPECT_EQ(mb.tracked_keys(), 0u);
  EXPECT_EQ(sum, 2ull * kTags * (kTags - 1) / 2);

  // Partially drained keys stay tracked until their last entry matches.
  mb.deliver(0, 1, make_payload(1));
  mb.deliver(0, 1, make_payload(2));
  auto w1 = mb.recv(1, 2);
  auto w2 = mb.recv(1, 2);
  EXPECT_EQ(mb.tracked_keys(), 2u);
  EXPECT_EQ(read_payload(mb.recv(0, 1).get()), 1);
  mb.deliver(1, 2, make_payload(3));
  EXPECT_EQ(mb.tracked_keys(), 2u);
  EXPECT_EQ(read_payload(mb.recv(0, 1).get()), 2);
  mb.deliver(1, 2, make_payload(4));
  EXPECT_EQ(read_payload(w1.get()), 3);
  EXPECT_EQ(read_payload(w2.get()), 4);
  EXPECT_EQ(mb.tracked_keys(), 0u);
  EXPECT_EQ(mb.pending_messages(), 0u);
  EXPECT_EQ(mb.pending_receives(), 0u);
}

// ------------------------------------------------------------ comm_world ----

TEST(CommWorld, SendRecvAcrossLocalities) {
  net::comm_world world(3);
  world.send(0, 2, 11, make_payload(123));
  auto f = world.recv(2, 0, 11);
  EXPECT_EQ(read_payload(f.get()), 123);
}

TEST(CommWorld, SelfSendWorks) {
  net::comm_world world(1);
  world.send(0, 0, 9, make_payload(4));
  EXPECT_EQ(read_payload(world.recv(0, 0, 9).get()), 4);
}

TEST(CommWorld, ContinuationOnArrival) {
  net::comm_world world(2);
  std::atomic<int> seen{0};
  auto f = world.recv(1, 0, 5).then(
      [&](nlh::amt::future<net::byte_buffer> b) { seen = read_payload(b.get()); });
  EXPECT_EQ(seen.load(), 0);
  world.send(0, 1, 5, make_payload(31));
  f.get();
  EXPECT_EQ(seen.load(), 31);
}

TEST(CommWorld, ManyTagsInterleaved) {
  net::comm_world world(2);
  std::vector<nlh::amt::future<net::byte_buffer>> fs;
  for (int tag = 0; tag < 20; ++tag) fs.push_back(world.recv(1, 0, tag));
  // Deliver in reverse order: tags must still match.
  for (int tag = 19; tag >= 0; --tag) world.send(0, 1, tag, make_payload(tag));
  for (int tag = 0; tag < 20; ++tag)
    EXPECT_EQ(read_payload(fs[static_cast<std::size_t>(tag)].get()), tag);
}
