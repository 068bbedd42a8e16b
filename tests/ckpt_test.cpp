// Tests for the src/ckpt/ subsystem (docs/checkpoint.md): frame codecs
// (bitwise-lossless round trips, incremental frames, compression of sparse
// change), the checkpoint_store, the LRU hibernation_manager, the
// dist_solver incremental checkpoint chain, the api-level
// hibernate -> restore -> run == uninterrupted-run guarantee, and
// svc::service_loop's persistent tenants under an LRU resident cap.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <random>
#include <vector>

#include "api/session.hpp"
#include "ckpt/codec.hpp"
#include "ckpt/hibernation.hpp"
#include "ckpt/store.hpp"
#include "dist/dist_solver.hpp"
#include "svc/service.hpp"

namespace api = nlh::api;
namespace ckpt = nlh::ckpt;
namespace dist = nlh::dist;
namespace net = nlh::net;
namespace svc = nlh::svc;

namespace {

// Bitwise equality, not numeric: distinguishes -0.0 from 0.0 and compares
// NaN payloads — the codec guarantee under test.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

bool snapshot_has(const nlh::obs::metrics_snapshot& s, const std::string& name) {
  for (const auto& [k, v] : s.counters)
    if (k == name) return true;
  for (const auto& [k, v] : s.gauges)
    if (k == name) return true;
  for (const auto& [k, v] : s.histograms)
    if (k == name) return true;
  return false;
}

std::vector<double> awkward_values() {
  return {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.5,
      1.0 / 3.0,
      std::numeric_limits<double>::min(),         // smallest normal
      std::numeric_limits<double>::denorm_min(),  // smallest denormal
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::epsilon(),
      6.02214076e23,
      -2.718281828459045e-100,
  };
}

std::vector<double> codec_round_trip(const ckpt::codec& c,
                                     const std::vector<double>& vals,
                                     const std::vector<double>* prev,
                                     ckpt::frame_stats* stats = nullptr) {
  net::archive_writer w;
  const auto s = c.encode(vals.data(), vals.size(),
                          prev ? prev->data() : nullptr, w);
  if (stats) *stats = s;
  EXPECT_EQ(s.raw_bytes, vals.size() * sizeof(double));
  const auto buf = w.take();
  EXPECT_EQ(s.encoded_bytes, buf.size());
  net::archive_reader r(buf);
  std::vector<double> out(vals.size());
  c.decode(r, out.data(), out.size(), prev ? prev->data() : nullptr);
  EXPECT_TRUE(r.exhausted()) << c.name() << ": frame is not self-delimiting";
  return out;
}

}  // namespace

// ------------------------------------------------------- codec primitives --

TEST(CkptCodecDetail, IeeeKeyIsAnOrderPreservingBijection) {
  using ckpt::detail::ieee_key;
  using ckpt::detail::ieee_unkey;
  const std::vector<double> ordered{
      -std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::max(), -1.0,
      -std::numeric_limits<double>::denorm_min(), -0.0, 0.0,
      std::numeric_limits<double>::denorm_min(), 1.0,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity()};
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    std::uint64_t bits_in, bits_out;
    std::memcpy(&bits_in, &ordered[i], 8);
    const double back = ieee_unkey(ieee_key(ordered[i]));
    std::memcpy(&bits_out, &back, 8);
    EXPECT_EQ(bits_in, bits_out);
    // Order preservation: -0.0 < 0.0 in key space is fine (distinct
    // keys); everything numerically ordered must stay ordered.
    if (i > 0 && ordered[i - 1] < ordered[i]) {
      EXPECT_LT(ieee_key(ordered[i - 1]), ieee_key(ordered[i]));
    }
  }
  // Total on arbitrary bit patterns (NaNs included).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::uint64_t nb, rb;
  std::memcpy(&nb, &nan, 8);
  const double rn = ieee_unkey(ieee_key(nan));
  std::memcpy(&rb, &rn, 8);
  EXPECT_EQ(nb, rb);
}

TEST(CkptCodecDetail, ZigzagVarintRoundTrip) {
  using namespace ckpt::detail;
  const std::vector<std::uint64_t> cases{
      0u, 1u, 2u, 127u, 128u, 16384u, static_cast<std::uint64_t>(-1),
      static_cast<std::uint64_t>(-2), 1ull << 62, (1ull << 63) - 1, 1ull << 63};
  net::archive_writer w;
  for (const auto v : cases) write_varint(w, zigzag(v));
  const auto buf = w.take();
  net::archive_reader r(buf);
  for (const auto v : cases) EXPECT_EQ(unzigzag(read_varint(r)), v);
  EXPECT_TRUE(r.exhausted());
}

TEST(CkptCodecDetail, FixedPointLatticeAcceptsAndRejects) {
  using ckpt::detail::fixed_point_lattice;
  std::vector<std::int64_t> q;
  int scale = 0;
  const std::vector<double> on{0.0, 0.25, -1.5, 1024.0, 3.75};
  ASSERT_TRUE(fixed_point_lattice(on.data(), on.size(), q, scale));
  ASSERT_EQ(q.size(), on.size());
  for (std::size_t i = 0; i < on.size(); ++i)
    EXPECT_EQ(std::ldexp(static_cast<double>(q[i]), scale), on[i]);

  const std::vector<double> nan_frame{1.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_FALSE(fixed_point_lattice(nan_frame.data(), nan_frame.size(), q, scale));
  const std::vector<double> neg_zero{1.0, -0.0};
  EXPECT_FALSE(fixed_point_lattice(neg_zero.data(), neg_zero.size(), q, scale));
}

// ---------------------------------------------------------- codec framing --

TEST(CkptCodec, RegistryHasRawAndDelta) {
  const auto names = ckpt::codec_names();
  EXPECT_EQ(names, (std::vector<std::string>{"delta", "raw"}));
  for (const auto& n : names) {
    ASSERT_NE(ckpt::find_codec(n), nullptr);
    EXPECT_EQ(ckpt::find_codec(n)->name(), n);
  }
  EXPECT_EQ(ckpt::find_codec("zstd"), nullptr);
}

TEST(CkptCodec, EveryCodecRoundTripsAwkwardValuesBitwise) {
  const auto vals = awkward_values();
  for (const auto& name : ckpt::codec_names()) {
    const auto& c = *ckpt::find_codec(name);
    EXPECT_TRUE(same_bits(codec_round_trip(c, vals, nullptr), vals))
        << name << " (self-contained)";
    // Incremental frame against a baseline of the same awkward values,
    // shifted by one so most entries actually differ.
    auto prev = vals;
    std::rotate(prev.begin(), prev.begin() + 1, prev.end());
    EXPECT_TRUE(same_bits(codec_round_trip(c, vals, &prev), vals))
        << name << " (vs baseline)";
  }
}

TEST(CkptCodec, EveryCodecRoundTripsRandomFramesBitwise) {
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> uni(-1e6, 1e6);
  for (const auto& name : ckpt::codec_names()) {
    const auto& c = *ckpt::find_codec(name);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                std::size_t{1000}}) {
      std::vector<double> vals(n), prev(n);
      for (auto& v : vals) v = uni(rng);
      for (auto& v : prev) v = uni(rng);
      EXPECT_TRUE(same_bits(codec_round_trip(c, vals, nullptr), vals))
          << name << " n=" << n;
      EXPECT_TRUE(same_bits(codec_round_trip(c, vals, &prev), vals))
          << name << " n=" << n << " (vs baseline)";
    }
  }
}

TEST(CkptCodec, DeltaUsesLatticeModeOnGridValues) {
  // Values on a dyadic lattice (what a forward-Euler field of lattice
  // initial data stays on for a while) take the fixed-point path.
  std::vector<double> vals(256);
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = static_cast<double>(static_cast<int>(i) - 100) * 0.125;
  ckpt::frame_stats s;
  EXPECT_TRUE(same_bits(codec_round_trip(ckpt::delta_codec(), vals, nullptr, &s),
                        vals));
  EXPECT_EQ(s.mode, 'f');

  // A NaN anywhere forces the IEEE-key fallback; still bitwise.
  vals[13] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(same_bits(codec_round_trip(ckpt::delta_codec(), vals, nullptr, &s),
                        vals));
  EXPECT_EQ(s.mode, 'b');
}

TEST(CkptCodec, DeltaCompressesZeroRunsAndSparseChange) {
  // Self-contained frame, mostly exact zeros: the RLE fast path must beat
  // raw by a wide margin (this is the compact-support far field).
  std::vector<double> vals(4096, 0.0);
  for (std::size_t i = 2000; i < 2032; ++i)
    vals[i] = static_cast<double>(i) * 0.25;
  ckpt::frame_stats s;
  EXPECT_TRUE(same_bits(codec_round_trip(ckpt::delta_codec(), vals, nullptr, &s),
                        vals));
  EXPECT_LT(s.encoded_bytes * 8, s.raw_bytes);  // > 8x on 99% zeros

  // Incremental frame where only a few entries moved since the baseline:
  // unchanged stretches are zero deltas and RLE away.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  std::vector<double> prev(4096);
  for (auto& v : prev) v = uni(rng);
  auto next = prev;
  for (std::size_t i = 100; i < 110; ++i) next[i] += 0.5;
  EXPECT_TRUE(same_bits(codec_round_trip(ckpt::delta_codec(), next, &prev, &s),
                        next));
  EXPECT_LT(s.encoded_bytes * 8, s.raw_bytes);
}

TEST(CkptCodec, RawIsExactlyPayloadPlusHeader) {
  std::vector<double> vals(100, 3.14);
  ckpt::frame_stats s;
  codec_round_trip(ckpt::raw_codec(), vals, nullptr, &s);
  EXPECT_EQ(s.mode, 'r');
  EXPECT_GE(s.encoded_bytes, vals.size() * sizeof(double));
  EXPECT_LE(s.encoded_bytes, vals.size() * sizeof(double) + 16);
}

TEST(CkptCodecDeathTest, DeltaFrameScaleThatMissesTheBaselineAborts) {
  // An incremental lattice frame of four zero deltas: the decoder rebuilds
  // each value from the baseline quantized with the frame's scale, which a
  // hostile frame picks freely.
  using namespace ckpt::detail;
  const std::vector<double> prev{1.0, 0.5, 3.0, -2.0};
  auto decode_with_scale = [&prev](std::int64_t scale) {
    net::archive_writer w;
    w.write_byte('f');
    write_varint(w, zigzag(static_cast<std::uint64_t>(scale)));
    write_varint(w, (std::uint64_t{4} << 1) | 1);  // one run of 4 zero deltas
    const auto buf = w.take();
    net::archive_reader r(buf);
    std::vector<double> out(prev.size());
    ckpt::delta_codec().decode(r, out.data(), out.size(), prev.data());
    return out;
  };
  EXPECT_TRUE(same_bits(decode_with_scale(-1), prev));  // the encoder's lattice

  GTEST_FLAG_SET(death_test_style, "threadsafe");
  // 2^200 lattice steps per unit: far past the 2^62 budget (an out-of-range
  // double -> int64 cast without the check).
  EXPECT_DEATH(decode_with_scale(-200), "scale does not fit its baseline");
  // Unit lattice: 0.5 is off it.
  EXPECT_DEATH(decode_with_scale(0), "scale does not fit its baseline");
}

// ------------------------------------------------------------------ store --

TEST(CkptStore, PutGetEraseRoundTrip) {
  // Purged on close, so reusing a fixed scratch path across runs is fine.
  ckpt::checkpoint_store store(std::filesystem::temp_directory_path() /
                               "nlh-ckpt-store-test");
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.contains("a"));

  net::byte_buffer blob;
  for (int i = 0; i < 300; ++i) blob.push_back(static_cast<std::byte>(i & 0xff));
  store.put("a", blob);
  store.put("b", net::byte_buffer(10, std::byte{0x5a}));
  EXPECT_TRUE(store.contains("a"));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.keys(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(store.bytes_on_disk(), 310u);

  auto back = store.acquire_buffer();
  store.get("a", back);
  EXPECT_EQ(back, blob);
  store.release_buffer(std::move(back));

  // Overwrite replaces, erase drops.
  store.put("a", net::byte_buffer(4, std::byte{1}));
  EXPECT_EQ(store.bytes_on_disk(), 14u);
  store.erase("a");
  EXPECT_FALSE(store.contains("a"));
  EXPECT_EQ(store.size(), 1u);
}

// ----------------------------------------------------- hibernation manager --

namespace {

/// Minimal "session" for manager unit tests: a vector of doubles that is
/// either resident or released.
struct fake_session {
  std::vector<double> state;
  bool resident = true;

  ckpt::hibernation_manager::callbacks callbacks() {
    ckpt::hibernation_manager::callbacks cb;
    cb.snapshot_and_release = [this](net::byte_buffer reuse) {
      net::archive_writer w(std::move(reuse));
      w.write(state);
      ckpt::snapshot_blob b;
      b.raw_bytes = state.size() * sizeof(double);
      b.bytes = w.take();
      state.clear();
      resident = false;
      return b;
    };
    cb.restore = [this](const net::byte_buffer& bytes) {
      net::archive_reader r(bytes);
      r.read_vector_into(state);
      resident = true;
    };
    return cb;
  }
};

}  // namespace

TEST(CkptHibernation, EvictsLeastRecentlyUsedParkedSession) {
  ckpt::hibernation_options opt;
  opt.resident_cap = 2;
  ckpt::hibernation_manager mgr(opt);

  fake_session a{{1.0}}, b{{2.0}}, c{{3.0}};
  mgr.add_session("a", a.callbacks());
  mgr.add_session("b", b.callbacks());
  EXPECT_EQ(mgr.resident_count(), 2u);
  EXPECT_EQ(mgr.hibernated_count(), 0u);

  // Registering a third parked session exceeds the cap: "a" is the LRU
  // (registered first, never touched since) and must go cold.
  mgr.add_session("c", c.callbacks());
  EXPECT_EQ(mgr.session_count(), 3u);
  EXPECT_EQ(mgr.resident_count(), 2u);
  EXPECT_TRUE(mgr.hibernated("a"));
  EXPECT_FALSE(a.resident);
  EXPECT_TRUE(b.resident);
  EXPECT_TRUE(c.resident);

  // Touch "b" (making "c" the LRU), then wake "a": "c" is evicted, not "b".
  mgr.activate("b");
  mgr.park("b");
  mgr.activate("a");
  mgr.park("a");
  EXPECT_TRUE(a.resident);
  EXPECT_EQ(a.state, std::vector<double>{1.0});
  EXPECT_TRUE(mgr.hibernated("c"));
  EXPECT_FALSE(c.resident);
  EXPECT_TRUE(b.resident);

  const auto st = mgr.current_stats();
  EXPECT_EQ(st.hibernates, 2u);
  EXPECT_EQ(st.restores, 1u);
  EXPECT_GT(st.bytes_raw, 0u);
  EXPECT_GT(st.bytes_encoded, 0u);
}

TEST(CkptHibernation, ActiveSessionsAreNeverEvicted) {
  ckpt::hibernation_options opt;
  opt.resident_cap = 1;
  ckpt::hibernation_manager mgr(opt);

  fake_session a{{1.0}}, b{{2.0}};
  mgr.add_session("a", a.callbacks());
  mgr.activate("a");  // pin
  mgr.add_session("b", b.callbacks());
  // "a" is active: the cap must fall on parked "b", even though "a" is
  // older.
  EXPECT_TRUE(a.resident);
  EXPECT_TRUE(mgr.hibernated("b"));

  mgr.park("a");
  EXPECT_FALSE(mgr.hibernate("missing"));
  EXPECT_TRUE(mgr.hibernate("a"));
  EXPECT_FALSE(mgr.hibernate("a"));  // already cold
  EXPECT_EQ(mgr.resident_count(), 0u);
  EXPECT_GT(mgr.store().bytes_on_disk(), 0u);
}

TEST(CkptHibernation, MetricsExposeCkptInstruments) {
  ckpt::hibernation_options opt;
  opt.resident_cap = 1;
  ckpt::hibernation_manager mgr(opt);
  fake_session a{{1.0, 2.0}}, b{{3.0}};
  mgr.add_session("a", a.callbacks());
  mgr.add_session("b", b.callbacks());
  mgr.activate("a");
  mgr.park("a");

  nlh::obs::metrics_snapshot snap;
  mgr.metrics_into(snap);
  for (const char* key :
       {"ckpt/hibernates", "ckpt/restores", "ckpt/bytes_raw",
        "ckpt/bytes_encoded", "ckpt/compression_ratio", "ckpt/sessions",
        "ckpt/resident", "ckpt/hibernated", "ckpt/bytes_on_disk",
        "ckpt/hibernate_seconds", "ckpt/restore_seconds"})
    EXPECT_TRUE(snapshot_has(snap, key)) << key;
}

TEST(CkptHibernation, OptionsValidateActionably) {
  ckpt::hibernation_options opt;
  EXPECT_TRUE(opt.validate().empty());
  opt.resident_cap = 0;
  EXPECT_NE(opt.validate().find("resident_cap"), std::string::npos);
}

// --------------------------------------------- dist incremental checkpoints --

namespace {

dist::dist_config chain_config(const std::string& codec = "delta") {
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = 2;
  cfg.sd_size = 8;
  cfg.epsilon_factor = 2;
  cfg.checkpoint.codec = codec;
  return cfg;
}

std::vector<double> run_and_gather(const net::byte_buffer& blob, int extra_steps,
                                   const dist::dist_config& cfg) {
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver s(cfg, dist::ownership_map(t, 2, {0, 1, 0, 1}));
  s.restore(blob);
  if (extra_steps > 0) s.run(extra_steps);
  return s.gather();
}

}  // namespace

TEST(CkptIncremental, DeltaChainRestoresBitwiseEqualToFull) {
  const auto cfg = chain_config();
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 1, 0, 1}));
  solver.set_initial_condition();
  solver.run(2);
  const auto c1 = solver.checkpoint();  // chain anchor: full frames
  solver.run(3);
  const auto c2 = solver.checkpoint();       // delta frames vs c1
  const auto full = solver.checkpoint_full();  // self-contained reference
  EXPECT_LT(c2.size(), full.size());  // the chain actually saved bytes

  // Restoring the chain (anchor, then delta) must land bitwise on the
  // same state as the self-contained snapshot.
  const dist::tiling t2(2, 2, 8, 2);
  dist::dist_solver chained(cfg, dist::ownership_map(t2, 2, {0, 0, 1, 1}));
  chained.restore(c1);
  chained.restore(c2);
  EXPECT_EQ(chained.current_step(), 5);
  EXPECT_TRUE(same_bits(chained.gather(), run_and_gather(full, 0, cfg)));
  EXPECT_TRUE(same_bits(chained.gather(), solver.gather()));

  // And continue identically.
  chained.run(4);
  solver.run(4);
  EXPECT_TRUE(same_bits(chained.gather(), solver.gather()));
}

TEST(CkptIncremental, EveryCodecMatchesRawSelfContainedState) {
  // checkpoint_full() through each codec restores to bitwise-identical
  // fields — codec choice is an encoding detail, never physics.
  std::vector<std::vector<double>> fields;
  for (const auto& codec : ckpt::codec_names()) {
    const auto cfg = chain_config(codec);
    const dist::tiling t(2, 2, 8, 2);
    dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 1, 0, 1}));
    solver.set_initial_condition();
    solver.run(4);
    fields.push_back(run_and_gather(solver.checkpoint_full(), 2, cfg));
  }
  for (std::size_t i = 1; i < fields.size(); ++i)
    EXPECT_TRUE(same_bits(fields[0], fields[i]));
}

TEST(CkptIncremental, MigratedSdFallsBackToFullFrameAndRestores) {
  const auto cfg = chain_config();
  const dist::tiling t(2, 2, 8, 2);
  dist::dist_solver solver(cfg, dist::ownership_map(t, 2, {0, 0, 1, 1}));
  solver.set_initial_condition();
  solver.run(1);
  const auto c1 = solver.checkpoint();  // anchor
  solver.migrate_sd(0, 1);              // epoch bump: SD 0 diverges from anchor
  solver.run(2);
  const auto c2 = solver.checkpoint();  // SD 0 full frame, others delta

  const dist::tiling t2(2, 2, 8, 2);
  dist::dist_solver restored(cfg, dist::ownership_map(t2, 2, {0, 0, 1, 1}));
  restored.restore(c1);
  restored.restore(c2);
  EXPECT_EQ(restored.current_step(), 3);
  EXPECT_EQ(restored.owners().owner(0), 1);
  EXPECT_TRUE(same_bits(restored.gather(), solver.gather()));
  restored.run(2);
  solver.run(2);
  EXPECT_TRUE(same_bits(restored.gather(), solver.gather()));
}

// -------------------------------------------- api hibernate/restore bitwise --

namespace {

api::session_options small_options(api::execution_mode mode,
                                   const std::string& backend,
                                   const std::string& schedule) {
  api::session_options o;
  o.scenario = "gaussian_pulse";
  o.mode = mode;
  o.n = 16;
  o.epsilon_factor = 2;
  o.sd_grid = 2;
  o.nodes = 2;
  o.kernel_backend = backend;
  o.overlap_schedule = schedule;
  return o;
}

std::vector<double> uninterrupted_field(const api::session_options& o, int steps) {
  api::session s(o);
  s.solver().run(steps);
  return s.solver().field();
}

/// A one-entry hibernation manager over `h`, registered the way
/// svc::service_loop registers a persistent tenant.
std::unique_ptr<ckpt::hibernation_manager> single_tenant_manager(
    api::solver_handle& h) {
  auto m = std::make_unique<ckpt::hibernation_manager>(ckpt::hibernation_options{});
  ckpt::hibernation_manager::callbacks cb;
  cb.snapshot_and_release = [&h](net::byte_buffer reuse) {
    return h.export_and_release(std::move(reuse));
  };
  cb.restore = [&h](const net::byte_buffer& b) { h.import_state(b); };
  m->add_session("tenant", std::move(cb));
  return m;
}

}  // namespace

TEST(CkptSession, HibernateRestoreRunIsBitwiseInvisible) {
  // Sample the mode x backend x schedule space (full sweep lives in the
  // nightly soak): each case must be bitwise equal to the uninterrupted
  // run.
  const struct {
    api::execution_mode mode;
    const char* backend;
    const char* schedule;
  } cases[] = {
      {api::execution_mode::serial, "scalar", "per_direction"},
      {api::execution_mode::serial, "simd", "per_direction"},
      {api::execution_mode::distributed, "scalar", "per_direction"},
      {api::execution_mode::distributed, "simd", "bulk_sync"},
      {api::execution_mode::distributed, "row_run", "coarse"},
  };
  for (const auto& c : cases) {
    const auto o = small_options(c.mode, c.backend, c.schedule);
    api::session s(o);
    auto& h = s.solver();
    const auto mgr = single_tenant_manager(h);
    h.run(3);
    EXPECT_TRUE(mgr->hibernate("tenant"));
    EXPECT_TRUE(h.hibernated());
    mgr->activate("tenant");  // restores before handing the session back
    EXPECT_FALSE(h.hibernated());
    h.run(4);
    mgr->park("tenant");
    EXPECT_EQ(h.current_step(), 7);
    EXPECT_TRUE(same_bits(h.field(), uninterrupted_field(o, 7)))
        << "mode=" << static_cast<int>(c.mode) << " backend=" << c.backend
        << " schedule=" << c.schedule;
    const auto st = mgr->current_stats();
    EXPECT_EQ(st.hibernates, 1u);
    EXPECT_EQ(st.restores, 1u);
  }
}

TEST(CkptSession, LockFreeAccessorsSurviveHibernation) {
  const auto o =
      small_options(api::execution_mode::distributed, "scalar", "per_direction");
  api::session s(o);
  auto& h = s.solver();
  const auto mgr = single_tenant_manager(h);
  h.run(2);
  const auto n = h.grid().n();
  const auto dt = h.dt();
  const auto backend = h.backend();
  EXPECT_TRUE(mgr->hibernate("tenant"));
  // grid()/dt()/backend() are documented lock-free: they serve a cache
  // and stay valid while the state lives in cold storage.
  EXPECT_EQ(h.grid().n(), n);
  EXPECT_EQ(h.dt(), dt);
  EXPECT_EQ(h.backend(), backend);
  EXPECT_TRUE(h.hibernated());
  mgr->activate("tenant");
  EXPECT_FALSE(h.hibernated());
  EXPECT_EQ(h.current_step(), 2);
  mgr->park("tenant");
}

TEST(CkptSessionDeathTest, SolverStateReaderOfAReleasedHandleAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  api::session_options o;
  o.n = 16;
  api::session s(o);
  auto& h = s.solver();
  h.export_and_release();
  EXPECT_DEATH(h.current_step(), "must import_state\\(\\) before use");
}

// ----------------------------------------------- service tenant hibernation --

namespace {

svc::service_options tenant_service(unsigned slots, std::size_t resident_cap) {
  svc::service_options o;
  o.pool_threads = slots;
  o.hibernation.enabled = true;
  o.hibernation.resident_cap = resident_cap;
  return o;
}

svc::svc_job tenant_job(const api::session_options& so, const std::string& key,
                        int steps) {
  svc::svc_job job;
  job.options = so;
  job.num_steps = steps;
  job.session_key = key;
  return job;
}

}  // namespace

TEST(CkptService, TenantsExceedResidentCapAndResumeBitwise) {
  const auto sopt = tenant_service(2, 2);
  svc::service_loop loop(sopt);

  api::session_options so;
  so.scenario = "gaussian_pulse";
  so.n = 16;
  so.epsilon_factor = 2;

  // 8 persistent tenants, 4x the resident cap, 3 steps each.
  constexpr int kTenants = 8;
  for (int i = 0; i < kTenants; ++i) {
    const std::string key = "tenant-" + std::to_string(i);
    loop.submit(key, svc::qos_class::batch, tenant_job(so, key, 3));
  }
  loop.wait_idle();
  ASSERT_NE(loop.hibernation(), nullptr);
  EXPECT_EQ(loop.tenant_count(), static_cast<std::size_t>(kTenants));
  EXPECT_EQ(loop.hibernation()->session_count(),
            static_cast<std::size_t>(kTenants));
  EXPECT_LE(loop.hibernation()->resident_count(),
            sopt.hibernation.resident_cap);
  EXPECT_GE(loop.hibernation()->hibernated_count(),
            static_cast<std::size_t>(kTenants) - sopt.hibernation.resident_cap);

  // Second job on tenant-0 (long hibernated by now): it must resume where
  // it stopped and stay bitwise equal to an uninterrupted 6-step run.
  std::vector<double> resumed;
  auto job = tenant_job(so, "tenant-0", 3);
  job.on_complete = [&](api::session& s) { resumed = s.solver().field(); };
  const auto res = loop.submit("tenant-0", svc::qos_class::batch, job).get();
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.metrics.steps, 6);
  EXPECT_TRUE(same_bits(resumed, uninterrupted_field(so, 6)));

  const auto st = loop.hibernation()->current_stats();
  EXPECT_GE(st.hibernates, static_cast<std::uint64_t>(
                               kTenants - static_cast<int>(
                                              sopt.hibernation.resident_cap)));
  EXPECT_GE(st.restores, 1u);
  EXPECT_GT(st.bytes_raw, st.bytes_encoded);  // delta actually compressed

  // The service's snapshot carries the ckpt/* view for the soak to grep.
  const auto snap = loop.metrics_snapshot();
  EXPECT_TRUE(snapshot_has(snap, "ckpt/hibernates"));
  EXPECT_TRUE(snapshot_has(snap, "svc/tenants"));
}

TEST(CkptService, SameKeyJobsRunSeriallyAndAccumulateSteps) {
  svc::service_loop loop(tenant_service(4, 1));

  api::session_options so;
  so.scenario = "gaussian_pulse";
  so.n = 16;
  so.epsilon_factor = 2;

  // Many concurrent submissions against one key: serialized execution
  // means the final step counter is exactly the sum.
  std::vector<nlh::amt::future<svc::svc_result>> futs;
  for (int i = 0; i < 6; ++i)
    futs.push_back(loop.submit("t", svc::qos_class::batch,
                               tenant_job(so, "shared", 2)));
  int max_steps = 0;
  for (auto& f : futs) {
    const auto r = f.get();
    ASSERT_TRUE(r.ok) << r.error;
    max_steps = std::max(max_steps, r.metrics.steps);
  }
  EXPECT_EQ(max_steps, 12);
  EXPECT_EQ(loop.tenant_count(), 1u);
}

TEST(CkptService, KeylessJobsIgnoreHibernation) {
  svc::service_loop loop(tenant_service(2, 1));
  api::session_options so;
  so.n = 16;
  const auto res =
      loop.submit("t", svc::qos_class::batch, tenant_job(so, "", 2)).get();
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(loop.tenant_count(), 0u);
  EXPECT_EQ(loop.hibernation()->session_count(), 0u);
  EXPECT_EQ(loop.hibernation()->current_stats().hibernates, 0u);
}
