// Tests for the src/ckpt/ subsystem (docs/checkpoint.md): the frame codec
// (bitwise-lossless round trips, compression of zero runs, rejection of
// malformed frames), the checkpoint_store, the LRU hibernation_manager, the
// api-level hibernate -> restore -> run == uninterrupted-run guarantee, and
// svc::service_loop's persistent tenants under an LRU resident cap.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "api/session.hpp"
#include "ckpt/codec.hpp"
#include "ckpt/hibernation.hpp"
#include "ckpt/store.hpp"
#include "svc/service.hpp"

namespace api = nlh::api;
namespace ckpt = nlh::ckpt;
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

/// Encode `vals` as one frame and decode it back; `frame` (optional)
/// receives the encoded bytes.
std::vector<double> codec_round_trip(const std::vector<double>& vals,
                                     net::byte_buffer* frame = nullptr) {
  net::archive_writer w;
  ckpt::encode_frame(vals.data(), vals.size(), w);
  const auto buf = w.take();
  net::archive_reader r(buf);
  std::vector<double> out(vals.size());
  ckpt::decode_frame(r, out.data(), out.size());
  EXPECT_TRUE(r.exhausted()) << "frame is not self-delimiting";
  if (frame) *frame = buf;
  return out;
}

/// Decode `bytes` as one frame of `n` values (the death tests' hostile input).
void decode_bytes(const net::byte_buffer& bytes, std::size_t n) {
  net::archive_reader r(bytes);
  std::vector<double> out(n);
  ckpt::decode_frame(r, out.data(), out.size());
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

TEST(CkptCodec, EveryCodecRoundTripsAwkwardValuesBitwise) {
  const auto vals = awkward_values();
  EXPECT_TRUE(same_bits(codec_round_trip(vals), vals));
}

TEST(CkptCodec, EveryCodecRoundTripsRandomFramesBitwise) {
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> uni(-1e6, 1e6);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{1000}}) {
    std::vector<double> vals(n);
    for (auto& v : vals) v = uni(rng);
    EXPECT_TRUE(same_bits(codec_round_trip(vals), vals)) << "n=" << n;
  }
}

TEST(CkptCodec, DeltaUsesLatticeModeOnGridValues) {
  // Values on a dyadic lattice (what a forward-Euler field of lattice
  // initial data stays on for a while) take the fixed-point path.
  std::vector<double> vals(256);
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = static_cast<double>(static_cast<int>(i) - 100) * 0.125;
  net::byte_buffer frame;
  EXPECT_TRUE(same_bits(codec_round_trip(vals, &frame), vals));
  EXPECT_EQ(static_cast<char>(frame.at(0)), 'f');

  // A NaN anywhere forces the IEEE-key fallback; still bitwise.
  vals[13] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(same_bits(codec_round_trip(vals, &frame), vals));
  EXPECT_EQ(static_cast<char>(frame.at(0)), 'b');
}

TEST(CkptCodec, DeltaCompressesZeroRunsAndSparseChange) {
  // Mostly exact zeros: the RLE fast path must beat the raw doubles by a
  // wide margin (this is the compact-support far field).
  std::vector<double> vals(4096, 0.0);
  for (std::size_t i = 2000; i < 2032; ++i)
    vals[i] = static_cast<double>(i) * 0.25;
  net::byte_buffer frame;
  EXPECT_TRUE(same_bits(codec_round_trip(vals, &frame), vals));
  EXPECT_LT(frame.size() * 8, vals.size() * sizeof(double));  // > 8x on 99% zeros
}

TEST(CkptCodecDeathTest, MalformedFramesAbort) {
  using namespace ckpt::detail;
  // A frame is a mode byte, the lattice scale for 'f', then groups of
  // ctrl = (count << 1) | zero_flag.
  const auto frame = [](std::initializer_list<std::uint64_t> varints,
                        char mode = 'b') {
    net::archive_writer w;
    w.write_byte(static_cast<std::uint8_t>(mode));
    for (const auto v : varints) write_varint(w, v);
    return w.take();
  };
  decode_bytes(frame({(std::uint64_t{4} << 1) | 1}), 4);  // 4 zero deltas: valid

  GTEST_FLAG_SET(death_test_style, "threadsafe");
  // 'r' (raw) is no mode of this codec.
  EXPECT_DEATH(decode_bytes(frame({(std::uint64_t{4} << 1) | 1}, 'r'), 4),
               "delta codec frame expected");
  // A group of count 0 (literal and zero-run forms) would never advance.
  EXPECT_DEATH(decode_bytes(frame({0}), 4), "frame group overruns");
  EXPECT_DEATH(decode_bytes(frame({1}), 4), "frame group overruns");
  // A group that runs past n would write past the output.
  EXPECT_DEATH(decode_bytes(frame({(std::uint64_t{5} << 1) | 1}), 4),
               "frame group overruns");
  EXPECT_DEATH(decode_bytes(frame({(std::uint64_t{3} << 1) | 1, 2 << 1, 7, 7}), 4),
               "frame group overruns");
  // An 11-byte varint, and a 10-byte one whose last byte carries bits past
  // bit 63.
  net::byte_buffer overlong = frame({});
  for (int k = 0; k < 10; ++k) overlong.push_back(std::byte{0xff});
  overlong.push_back(std::byte{0x01});
  EXPECT_DEATH(decode_bytes(overlong, 4), "varint too long");
  net::byte_buffer wide = frame({});
  for (int k = 0; k < 9; ++k) wide.push_back(std::byte{0x80});
  wide.push_back(std::byte{0x7f});
  EXPECT_DEATH(decode_bytes(wide, 4), "varint too long");
  // A truncated frame, down to no mode byte at all.
  net::byte_buffer full;
  codec_round_trip({1.0, 2.0, 3.0, 4.0}, &full);
  for (std::size_t len = 0; len < full.size(); ++len) {
    const net::byte_buffer cut(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_DEATH(decode_bytes(cut, 4), "underrun") << "length " << len;
  }
}

// ------------------------------------------------------------------ store --

TEST(CkptStore, PutGetEraseRoundTrip) {
  // Destruction removes the blobs and then the emptied directory, so
  // reusing a fixed scratch path across runs is fine.
  const auto dir = std::filesystem::temp_directory_path() / "nlh-ckpt-store-test";
  const auto a_file = dir / "a.ckpt";
  const auto b_file = dir / "b.ckpt";
  {
    ckpt::checkpoint_store store(dir);
    EXPECT_EQ(store.bytes_on_disk(), 0u);

    net::byte_buffer blob;
    for (int i = 0; i < 300; ++i) blob.push_back(static_cast<std::byte>(i & 0xff));
    store.put("a", blob);
    store.put("b", net::byte_buffer(10, std::byte{0x5a}));
    EXPECT_TRUE(std::filesystem::exists(a_file));
    EXPECT_TRUE(std::filesystem::exists(b_file));
    EXPECT_EQ(store.bytes_on_disk(), 310u);

    auto back = store.acquire_buffer();
    store.get("a", back);
    EXPECT_EQ(back, blob);
    store.release_buffer(std::move(back));

    // Overwrite replaces, erase drops (once).
    store.put("a", net::byte_buffer(4, std::byte{1}));
    EXPECT_EQ(store.bytes_on_disk(), 14u);
    EXPECT_TRUE(store.erase("a"));
    EXPECT_FALSE(store.erase("a"));
    EXPECT_FALSE(std::filesystem::exists(a_file));
    EXPECT_EQ(store.bytes_on_disk(), 10u);
    EXPECT_TRUE(std::filesystem::exists(b_file));
  }
  EXPECT_FALSE(std::filesystem::exists(b_file));
  EXPECT_FALSE(std::filesystem::exists(dir));
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
  nlh::obs::metrics_snapshot snap;
  mgr.metrics_into(snap);
  double on_disk = 0.0;
  for (const auto& [k, v] : snap.gauges)
    if (k == "ckpt/bytes_on_disk") on_disk = v;
  EXPECT_GT(on_disk, 0.0);
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

// Each hibernation manager makes its own nlh-hibernate-<pid>-<n> scratch
// directory under the temp path; a service that hibernated tenants must
// take it away again. Entries of that name already there (left by an
// earlier process with the same pid) are not this process's.
TEST(CkptService, HibernatingServicesLeaveNoScratchDirectory) {
  const std::string prefix =
      "nlh-hibernate-" + std::to_string(::getpid()) + "-";
  const auto scratch_dirs = [&] {
    std::set<std::string> names;
    for (const auto& e : std::filesystem::directory_iterator(
             std::filesystem::temp_directory_path())) {
      auto name = e.path().filename().string();
      if (name.rfind(prefix, 0) == 0) names.insert(std::move(name));
    }
    return names;
  };
  const auto before = scratch_dirs();

  api::session_options so;
  so.scenario = "gaussian_pulse";
  so.n = 16;
  so.epsilon_factor = 2;
  for (int round = 0; round < 8; ++round) {
    svc::service_loop loop(tenant_service(1, 1));
    // Two tenants over a resident cap of one: one of them is hibernated.
    for (const char* key : {"a", "b"})
      loop.submit(key, svc::qos_class::batch, tenant_job(so, key, 1));
    loop.wait_idle();
    EXPECT_GE(loop.hibernation()->current_stats().hibernates, 1u);
  }

  for (const auto& name : scratch_dirs())
    EXPECT_EQ(before.count(name), 1u) << name << " left behind";
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
