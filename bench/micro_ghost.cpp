///
/// \file micro_ghost.cpp
/// \brief Microbenchmarks of the ghost-exchange path: strip pack/unpack,
/// serialization, and the full mailbox round trip.
///

#include <benchmark/benchmark.h>

#include "dist/sd_block.hpp"
#include "dist/tiling.hpp"
#include "net/comm_world.hpp"
#include "net/serializer.hpp"

namespace dist = nlh::dist;
namespace net = nlh::net;

static void BM_StripPack(benchmark::State& state) {
  const int sd_size = static_cast<int>(state.range(0));
  const int ghost = 8;
  dist::tiling t(2, 2, sd_size, ghost);
  dist::sd_block b(t, 0);
  for (int i = 0; i < sd_size; ++i)
    for (int j = 0; j < sd_size; ++j) b.u()[b.flat(i, j)] = i + j;
  for (auto _ : state) {
    net::archive_writer w;  // a fresh message every time
    b.pack(t, dist::direction::east, w);
    auto buf = w.take();
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * sd_size * ghost * 8);
}
BENCHMARK(BM_StripPack)->Arg(16)->Arg(50)->Arg(100)->Arg(200);

static void BM_StripPackPooled(benchmark::State& state) {
  // Packing into a recycled message buffer keeps its capacity: past the
  // first iteration the pack path performs zero allocations (the pooled
  // dist_solver exchange) — compare against BM_StripPack.
  const int sd_size = static_cast<int>(state.range(0));
  const int ghost = 8;
  dist::tiling t(2, 2, sd_size, ghost);
  dist::sd_block b(t, 0);
  for (int i = 0; i < sd_size; ++i)
    for (int j = 0; j < sd_size; ++j) b.u()[b.flat(i, j)] = i + j;
  net::byte_buffer buf;
  for (auto _ : state) {
    net::archive_writer w(std::move(buf));
    b.pack(t, dist::direction::east, w);
    buf = w.take();
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(state.iterations() * sd_size * ghost * 8);
}
BENCHMARK(BM_StripPackPooled)->Arg(16)->Arg(50)->Arg(100)->Arg(200);

static void BM_StripUnpack(benchmark::State& state) {
  const int sd_size = static_cast<int>(state.range(0));
  const int ghost = 8;
  dist::tiling t(2, 2, sd_size, ghost);
  dist::sd_block a(t, 0), b(t, 1);
  net::archive_writer w;
  a.pack(t, dist::direction::east, w);
  const auto msg = w.take();
  for (auto _ : state) {
    net::archive_reader r(msg);
    b.unpack(t, dist::direction::west, r);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() * sd_size * ghost * 8);
}
BENCHMARK(BM_StripUnpack)->Arg(16)->Arg(50)->Arg(100)->Arg(200);

static void BM_LocalFillVsSerializedPath(benchmark::State& state) {
  const int sd_size = 50;
  dist::tiling t(1, 2, sd_size, 8);
  dist::sd_block a(t, 0), b(t, 1);
  const bool direct = state.range(0) == 1;
  for (auto _ : state) {
    if (direct) {
      b.fill_from_local(t, dist::direction::west, a);
    } else {
      net::archive_writer w;
      a.pack(t, dist::direction::east, w);
      const auto buf = w.take();
      net::archive_reader r(buf);
      b.unpack(t, dist::direction::west, r);
    }
    benchmark::ClobberMemory();
  }
  state.SetLabel(direct ? "direct collar copy" : "pack+serialize+unpack");
}
BENCHMARK(BM_LocalFillVsSerializedPath)->Arg(1)->Arg(0);

static void BM_SerializedExchangeAllocVsPooled(benchmark::State& state) {
  // The full serialized exchange (pack -> archive -> unpack) with a fresh
  // message buffer each time (Arg 0) versus a recycled one (Arg 1), the way
  // the receive side hands each message's buffer back to its sender. The
  // delta is allocator traffic.
  const int sd_size = 50;
  dist::tiling t(1, 2, sd_size, 8);
  dist::sd_block a(t, 0), b(t, 1);
  const bool pooled = state.range(0) == 1;
  net::byte_buffer recycled;
  for (auto _ : state) {
    if (pooled) {
      net::archive_writer w(std::move(recycled));
      a.pack(t, dist::direction::east, w);
      auto buf = w.take();
      net::archive_reader r(buf);
      b.unpack(t, dist::direction::west, r);
      recycled = std::move(buf);  // back to the pool
    } else {
      net::archive_writer w;
      a.pack(t, dist::direction::east, w);
      const auto buf = w.take();
      net::archive_reader r(buf);
      b.unpack(t, dist::direction::west, r);
    }
    benchmark::ClobberMemory();
  }
  state.SetLabel(pooled ? "pooled buffers" : "fresh allocations");
  state.SetBytesProcessed(state.iterations() * sd_size * 8 * 8);
}
BENCHMARK(BM_SerializedExchangeAllocVsPooled)->Arg(0)->Arg(1);

static void BM_MailboxRoundTrip(benchmark::State& state) {
  net::comm_world world(2);
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  std::uint64_t tag = 0;
  for (auto _ : state) {
    net::byte_buffer payload(bytes);
    world.send(0, 1, tag, std::move(payload));
    auto got = world.recv(1, 0, tag).get();
    benchmark::DoNotOptimize(got.data());
    ++tag;
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_MailboxRoundTrip)->Arg(64)->Arg(3200)->Arg(65536);
