///
/// \file micro_checkpoint.cpp
/// \brief google-benchmark microbenchmarks of the src/ckpt/ subsystem —
/// frame encode/decode throughput on pulse-like and dense frames, the
/// session hibernate/restore round trip — plus a self-contained guard pass
/// that writes BENCH_checkpoint.json.
///
/// The guard is the regression fence for the compression claim
/// (docs/checkpoint.md): on a smooth compact-support pulse field the whole
/// dist_solver::checkpoint() blob, headers included, must be at least
/// `min_smooth_ratio` (3x) smaller than the raw bytes of the SD interiors
/// it holds, and 16 persistent tenants of one svc::service_loop under a
/// resident cap of 4 must actually hold 4x more sessions than the cap. The dense
/// crack field's ratio is *reported* (full-entropy fields hover near 1x by
/// design) but never gated.
/// Hibernate/restore latencies (one session through a one-entry
/// hibernation_manager, wired the way svc::service_loop wires a tenant)
/// ride along for trend tracking. Set
/// NLH_BENCH_CHECKPOINT_JSON to redirect the report (default:
/// ./BENCH_checkpoint.json).
///

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "api/scenario.hpp"
#include "api/session.hpp"
#include "ckpt/codec.hpp"
#include "ckpt/hibernation.hpp"
#include "dist/dist_solver.hpp"
#include "dist/ownership.hpp"
#include "support/stopwatch.hpp"
#include "svc/service.hpp"

namespace api = nlh::api;
namespace ckpt = nlh::ckpt;
namespace dist = nlh::dist;
namespace net = nlh::net;

namespace {

/// Pulse-like frame: exact-zero far field with a smooth bump — the shape
/// the RLE fast path is built for.
std::vector<double> pulse_frame(std::size_t n) {
  std::vector<double> v(n, 0.0);
  for (std::size_t i = n / 2; i < n / 2 + n / 16; ++i)
    v[i] = 1.0 + 0.25 * static_cast<double>(i % 7);
  return v;
}

/// Dense full-entropy frame (every value distinct, nothing on a small
/// lattice): the worst case the codec must stay near-1x on, not regress.
std::vector<double> dense_frame(std::size_t n) {
  std::vector<double> v(n);
  double x = 0.123456789;
  for (auto& e : v) {
    x = x * 1.0000001 + 1e-9;
    e = x;
  }
  return v;
}

/// One-entry hibernation manager over `h`, registered the way
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

/// Encode throughput of one 16k-double frame.
static void encode_frames(benchmark::State& state, const std::vector<double>& vals) {
  for (auto _ : state) {
    net::archive_writer w;
    ckpt::encode_frame(vals.data(), vals.size(), w);
    benchmark::DoNotOptimize(w.size());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(vals.size() * 8));
}

static void BM_CkptEncodePulse(benchmark::State& state) {
  encode_frames(state, pulse_frame(16384));
}
BENCHMARK(BM_CkptEncodePulse);

static void BM_CkptEncodeDense(benchmark::State& state) {
  encode_frames(state, dense_frame(16384));
}
BENCHMARK(BM_CkptEncodeDense);

static void BM_CkptDecodePulse(benchmark::State& state) {
  const auto vals = pulse_frame(16384);
  net::archive_writer w;
  ckpt::encode_frame(vals.data(), vals.size(), w);
  const auto buf = w.take();
  std::vector<double> out(vals.size());
  for (auto _ : state) {
    net::archive_reader r(buf);
    ckpt::decode_frame(r, out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(vals.size() * 8));
}
BENCHMARK(BM_CkptDecodePulse);

static void BM_CkptHibernateRestore(benchmark::State& state) {
  api::session_options o;
  o.scenario = "gaussian_pulse";
  o.n = 64;
  api::session s(o);
  auto& h = s.solver();
  h.run(2);
  const auto mgr = single_tenant_manager(h);
  for (auto _ : state) {
    mgr->hibernate("tenant");
    mgr->activate("tenant");  // restores
    mgr->park("tenant");
    benchmark::DoNotOptimize(h.current_step());
  }
}
BENCHMARK(BM_CkptHibernateRestore);

// -------------------------------------------------------------- guard pass --

namespace {

/// The guard's solver: 4x4 SDs of 16x16 DPs on 2 localities.
constexpr int kSdGrid = 4;
constexpr int kSdSize = 16;
constexpr int kNumSds = kSdGrid * kSdGrid;
/// Raw bytes of the SD interiors one checkpoint holds: the ratio's numerator.
constexpr std::uint64_t kRawInteriorBytes =
    std::uint64_t{kNumSds} * kSdSize * kSdSize * sizeof(double);

/// checkpoint() size of a 4-step distributed run of `scn`.
std::uint64_t dist_checkpoint_bytes(std::shared_ptr<const api::scenario> scn) {
  dist::dist_config cfg;
  cfg.sd_rows = cfg.sd_cols = kSdGrid;
  cfg.sd_size = kSdSize;
  cfg.epsilon_factor = 2;
  cfg.threads_per_locality = 1;
  const dist::tiling t(cfg.sd_rows, cfg.sd_cols, cfg.sd_size, cfg.epsilon_factor);
  std::vector<int> owner(static_cast<std::size_t>(t.num_sds()));
  for (int sd = 0; sd < t.num_sds(); ++sd)
    owner[static_cast<std::size_t>(sd)] = (sd / cfg.sd_cols) < cfg.sd_rows / 2 ? 0 : 1;
  dist::dist_solver solver(cfg, dist::ownership_map(t, 2, std::move(owner)),
                           std::move(scn));
  solver.set_initial_condition();
  // The nonlocal support spreads by epsilon (= 2h) per forward-Euler step;
  // 4 steps keep a compact-support pulse compact (far field exactly 0.0)
  // the way a production checkpoint cadence would, instead of letting the
  // bump swallow the domain before the snapshot.
  solver.run(4);
  return solver.checkpoint().size();
}

/// Best-of-reps hibernate and restore latency of a 64x64 serial session.
void measure_hibernate_restore(double* hibernate_ms, double* restore_ms) {
  api::session_options o;
  o.scenario = "gaussian_pulse";
  o.n = 64;
  api::session s(o);
  auto& h = s.solver();
  h.run(2);
  const auto mgr = single_tenant_manager(h);
  *hibernate_ms = *restore_ms = 1e300;
  for (int r = 0; r < 5; ++r) {
    nlh::support::stopwatch sw;
    mgr->hibernate("tenant");
    *hibernate_ms = std::min(*hibernate_ms, sw.elapsed_s() * 1e3);
    nlh::support::stopwatch sr;
    mgr->activate("tenant");  // restores
    mgr->park("tenant");
    *restore_ms = std::min(*restore_ms, sr.elapsed_s() * 1e3);
  }
}

bool run_checkpoint_guard(const char* path) {
  constexpr double min_smooth_ratio = 3.0;
  constexpr int tenants = 16;
  constexpr std::size_t resident_cap = 4;

  // Compact-support pulse: the far field is exactly 0.0 and stays exact
  // zero under the source-free forward-Euler update, so the delta codec's
  // RLE path has honest runs to collapse — this is the gated scenario.
  auto smooth = std::make_shared<api::gaussian_pulse_scenario>(
      0.5, 0.5, 0.05, 1.0, /*support_radius=*/0.12);
  const auto smooth_raw = kRawInteriorBytes;
  const auto smooth_delta = dist_checkpoint_bytes(smooth);
  const double smooth_ratio =
      static_cast<double>(smooth_raw) / static_cast<double>(smooth_delta);

  // Dense crack field: reported for honesty, never gated (full-entropy
  // values have no runs and rarely share a small lattice).
  const auto crack = api::make_scenario("crack");
  const auto crack_raw = kRawInteriorBytes;
  const auto crack_delta = dist_checkpoint_bytes(crack);
  const double crack_ratio =
      static_cast<double>(crack_raw) / static_cast<double>(crack_delta);

  double hibernate_ms = 0.0, restore_ms = 0.0;
  measure_hibernate_restore(&hibernate_ms, &restore_ms);

  // Multi-tenant demo: 16 persistent tenants under a resident cap of 4 —
  // the service must hold 4x more sessions than the cap allows in memory.
  nlh::svc::service_options sopt;
  sopt.pool_threads = 2;
  sopt.hibernation.enabled = true;
  sopt.hibernation.resident_cap = resident_cap;
  std::size_t held = 0, resident = 0;
  {
    nlh::svc::service_loop loop(sopt);
    nlh::svc::svc_job job;
    job.options.scenario = "gaussian_pulse";
    job.options.n = 32;
    job.options.epsilon_factor = 2;
    job.num_steps = 2;
    for (int i = 0; i < tenants; ++i) {
      job.session_key = "tenant-" + std::to_string(i);
      loop.submit(job.session_key, nlh::svc::qos_class::batch, job);
    }
    loop.wait_idle();
    held = loop.hibernation()->session_count();
    resident = loop.hibernation()->resident_count();
  }
  const double tenants_per_cap =
      static_cast<double>(held) / static_cast<double>(resident_cap);

  const bool ratio_ok = smooth_ratio >= min_smooth_ratio;
  const bool tenants_ok = held == tenants && resident <= resident_cap &&
                          tenants_per_cap >= 4.0;
  const bool pass = ratio_ok && tenants_ok;

  std::printf("\ncheckpoint guard (%d SDs, 16x16 DPs each):\n", kNumSds);
  std::printf("  smooth pulse  raw %7llu B  delta %7llu B  ratio %5.2fx "
              "(gate >= %.1fx)\n",
              static_cast<unsigned long long>(smooth_raw),
              static_cast<unsigned long long>(smooth_delta), smooth_ratio,
              min_smooth_ratio);
  std::printf("  crack (dense) raw %7llu B  delta %7llu B  ratio %5.2fx "
              "(reported, not gated)\n",
              static_cast<unsigned long long>(crack_raw),
              static_cast<unsigned long long>(crack_delta), crack_ratio);
  std::printf("  hibernate %.3f ms   restore %.3f ms (64x64 serial, best of 5)\n",
              hibernate_ms, restore_ms);
  std::printf("  service: %zu tenants held, %zu resident (cap %zu) -> %.1fx "
              "(gate >= 4x)\n",
              held, resident, resident_cap, tenants_per_cap);

  std::FILE* fp = std::fopen(path, "w");
  if (!fp) {
    std::fprintf(stderr, "checkpoint guard: cannot open %s\n", path);
    return false;
  }
  std::fprintf(fp,
               "{\n"
               "  \"bench\": \"micro_checkpoint\",\n"
               "  \"num_sds\": %d,\n"
               "  \"smooth_raw_bytes\": %llu,\n"
               "  \"smooth_delta_bytes\": %llu,\n"
               "  \"smooth_bytes_per_sd_raw\": %.1f,\n"
               "  \"smooth_bytes_per_sd_delta\": %.1f,\n"
               "  \"smooth_ratio\": %.3f,\n"
               "  \"min_smooth_ratio\": %.1f,\n"
               "  \"crack_raw_bytes\": %llu,\n"
               "  \"crack_delta_bytes\": %llu,\n"
               "  \"crack_ratio\": %.3f,\n"
               "  \"hibernate_ms\": %.4f,\n"
               "  \"restore_ms\": %.4f,\n"
               "  \"tenants_held\": %zu,\n"
               "  \"resident_cap\": %zu,\n"
               "  \"tenants_per_cap\": %.1f,\n"
               "  \"pass\": %s\n"
               "}\n",
               kNumSds, static_cast<unsigned long long>(smooth_raw),
               static_cast<unsigned long long>(smooth_delta),
               static_cast<double>(smooth_raw) / kNumSds,
               static_cast<double>(smooth_delta) / kNumSds, smooth_ratio,
               min_smooth_ratio, static_cast<unsigned long long>(crack_raw),
               static_cast<unsigned long long>(crack_delta), crack_ratio,
               hibernate_ms, restore_ms, held, resident_cap, tenants_per_cap,
               pass ? "true" : "false");
  std::fclose(fp);
  std::printf("  guard %s -> %s\n", pass ? "PASS" : "FAIL", path);
  return pass;
}

}  // namespace

/// Custom main (this target links plain benchmark::benchmark, not
/// benchmark_main): the usual google-benchmark run, then the guard pass.
/// The guard is skipped when a --benchmark_filter excludes the checkpoint
/// benchmarks.
int main(int argc, char** argv) {
  bool guard_wanted = true;
  for (int a = 1; a < argc; ++a) {
    const std::string arg = argv[a];
    const std::string prefix = "--benchmark_filter=";
    if (arg.rfind(prefix, 0) == 0) {
      const std::string filter = arg.substr(prefix.size());
      guard_wanted = filter.empty() || filter == "all" || filter == ".*" ||
                     filter.find("Ckpt") != std::string::npos;
    }
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!guard_wanted) return 0;
  const char* path = std::getenv("NLH_BENCH_CHECKPOINT_JSON");
  return run_checkpoint_guard(path ? path : "BENCH_checkpoint.json") ? 0 : 1;
}
