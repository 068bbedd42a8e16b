#pragma once
///
/// \file session.hpp
/// \brief The `nlh::api::session` facade: one declarative entry point over
/// the mesh-dual / partition / tiling / ownership / solver chain
/// (docs/api.md).
///
/// Callers describe a run with `session_options` (scenario, mesh,
/// execution mode, partitioning, kernel backend); the session validates
/// the options with actionable errors, builds the distribution internally
/// and exposes one polymorphic `solver_handle` backed by either the serial
/// reference or the asynchronous distributed solver. Both backends route
/// the physics through the same `scenario`, so the serial==distributed
/// bitwise guarantee holds per kernel backend through the facade exactly
/// as it does for the hand-wired layers.
///
/// The facade is futures-first and multi-tenant: `step_async`/`run_async`
/// return `amt::future<runtime_metrics>` driven by a per-handle driver
/// thread (the blocking `step`/`run` are thin wrappers over the same
/// stepping body), and the kernel backend is owned *per session* — the
/// solver's stencil_plan is pinned at construction, never a process
/// global — so sessions with different backends run concurrently in one
/// process, each bitwise equal to its solo run. `svc/service.hpp` builds
/// the multi-job service on top of this.
///

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "amt/future.hpp"
#include "amt/thread_pool.hpp"
#include "api/scenario.hpp"
#include "balance/policy.hpp"
#include "ckpt/hibernation.hpp"
#include "dist/domain_mask.hpp"
#include "dist/ownership.hpp"
#include "dist/tiling.hpp"
#include "nonlocal/serial_solver.hpp"
#include "obs/metrics.hpp"

namespace nlh::api {

/// Which solver backs the session's solver_handle.
enum class execution_mode {
  serial,       ///< single-threaded reference solver
  distributed,  ///< asynchronous multi-locality solver
};

/// How the SD dual graph is split across localities (distributed mode).
enum class partition_strategy {
  multilevel,  ///< METIS-style multilevel k-way (the default)
  block,       ///< rectangular block baseline (no graph model)
};

/// One declarative description of a run. Subsumes
/// `nonlocal::solver_config` and `dist::dist_config` plus the partitioning
/// and kernel-backend choices the examples used to hand-wire.
struct session_options {
  /// Registry key of the workload (see scenario_names()); ignored when
  /// custom_scenario is set.
  std::string scenario = "manufactured";
  /// Explicit scenario instance (e.g. a parameterized crack_scenario);
  /// overrides `scenario` when non-null.
  std::shared_ptr<const class scenario> custom_scenario;

  execution_mode mode = execution_mode::serial;

  // --- Discretization (both modes) ---------------------------------------
  int n = 64;                 ///< interior DPs per dimension
  int epsilon_factor = 4;     ///< epsilon = factor * h (= ghost width in DPs)
  double conductivity = 1.0;  ///< classical k
  double dt = 0.0;            ///< 0 = stability bound * dt_safety
  double dt_safety = 0.5;     ///< fraction of the stability bound
  int num_steps = 20;         ///< step budget callers pass to solver_handle::run()
  nonlocal::influence_kind kind = nonlocal::influence_kind::constant;

  // --- Distribution (distributed mode) -----------------------------------
  int sd_grid = 4;   ///< SDs per dimension; n must divide evenly
  int nodes = 2;     ///< localities
  int threads_per_locality = 1;
  /// Ghost-exchange schedule: "per_direction" (default — each case-1 strip
  /// waits only on the ghost arrivals it reads), "coarse" (all of an SD's
  /// strips gate on all of its ghosts) or "bulk_sync" (no hiding;
  /// docs/overlap.md).
  std::string overlap_schedule = "per_direction";
  partition_strategy partitioner = partition_strategy::multilevel;
  /// Live Algorithm 1 auto-rebalancing (docs/balance.md): when enabled the
  /// distributed solver samples per-locality busy time every
  /// `auto_rebalance.interval` steps and migrates SDs whenever the measured
  /// imbalance reaches the trigger. Distributed mode only — validation
  /// rejects an enabled policy in serial mode (there is nothing to
  /// rebalance). Disabled (the default) keeps the static partition.
  balance::rebalance_policy auto_rebalance;

  // --- Kernel backend ------------------------------------------------------
  /// "scalar", "row_run", "simd" or "avx512"; pins *this session's* kernel
  /// backend (the solver's stencil_plan is pinned at construction — no
  /// process global is touched, so sessions with different backends
  /// coexist). Empty = follow the process default: the CMake-configured
  /// backend, else the best available one (see docs/api.md).
  std::string kernel_backend;
};

/// Passed to the per-step observer after every completed step.
struct step_event {
  int step = 0;   ///< completed steps so far (1 after the first step)
  double t = 0.0; ///< simulated time step * dt
};

/// Streaming per-step callback. Delivery contract (docs/api.md): events
/// arrive strictly in step order and never concurrently — the handle
/// serializes all stepping, blocking or async, behind one lock; the
/// callback runs on whichever thread executes the step (the caller for
/// `step`/`run`, the handle's driver thread for `step_async`/`run_async`).
/// Inside the callback `current_step()`, `dt()`, `field()` and `metrics()`
/// of the same handle are safe; calling `step*`/`run*` on it is not.
using step_observer = std::function<void(const step_event&)>;

/// Runtime counters of one solver_handle.
struct runtime_metrics {
  int steps = 0;                 ///< completed steps
  double dt = 0.0;
  double wall_seconds = 0.0;     ///< wall time spent stepping
  std::uint64_t ghost_bytes = 0; ///< serialized ghost traffic (0 serial)
  std::string kernel_backend;    ///< this handle's resolved backend name
  /// Ghost-exchange schedule the solver executes ("serial" for the serial
  /// backend; else "bulk_sync" / "coarse" / "per_direction").
  std::string overlap_schedule;
  /// Wall time the stepping thread spent blocked in the end-of-step drain,
  /// waiting on ghost-dependent work (0 serial). High values mean
  /// communication dominates and the overlap could not hide it.
  double comm_wait_seconds = 0.0;
  /// Compute tasks (case-2 interiors + case-1 strips) that finished while
  /// at least one ghost message was still in flight — the direct evidence
  /// of communication hiding (0 serial / bulk_sync).
  std::uint64_t overlap_early_tasks = 0;
  /// True when the distributed backend produced these metrics. The schema
  /// is uniform across backends: serial handles report the overlap fields
  /// (ghost_bytes, comm_wait_seconds, overlap_early_tasks) as genuine
  /// zeros — nothing was exchanged, nothing waited — and this flag is how
  /// a consumer tells "zero because serial" from "zero because the overlap
  /// hid everything" (docs/api.md).
  bool is_distributed = false;
  /// Wall latency distribution of this handle's completed steps (seconds):
  /// every step records into a per-handle histogram regardless of backend,
  /// so p50/p99 step latency is comparable serial vs distributed.
  obs::histogram_summary step_latency;
  /// Live auto-rebalancing observables (docs/balance.md); genuine zeros
  /// when `session_options::auto_rebalance` was disabled or the backend is
  /// serial. Epochs are the rebalance checks whose imbalance reached the
  /// trigger; moves are the SD migrations they performed. The imbalance
  /// pair is max_i |LoadImbalance(N_i)| (eq. 9, in SD units) at the last
  /// check, before and after that check's redistribution (equal when no
  /// epoch fired).
  std::uint64_t rebalance_epochs = 0;
  std::uint64_t rebalance_moves = 0;
  double rebalance_imbalance_before = 0.0;
  double rebalance_imbalance_after = 0.0;
};

/// Internal polymorphic solver body (serial / distributed); defined in
/// session.cpp. The public solver_handle owns one by composition, so the
/// async machinery (driver thread, locks) lives in exactly one place and
/// destruction order — driver joined before the body dies — is enforced
/// by member order, not by per-subclass convention.
class solver_impl;

/// Handle over the serial / distributed solver: futurized stepping, field
/// access, error-vs-exact, streaming per-step observer and runtime
/// metrics.
///
/// Threading: `step_async`/`run_async` hand the work to a lazily created
/// single-thread driver owned by the handle and return immediately; all
/// stepping (async or blocking) is serialized behind one internal lock, so
/// concurrent submissions queue rather than race, and submissions from one
/// thread execute in submission order. Readers that touch solver state
/// (`field()`, `current_step()`, `ghost_bytes()`, `error_vs_exact()`,
/// `metrics()`) take the same lock: they are safe from any thread while an
/// async run is in flight, but block until the in-flight chunk (one whole
/// `run_async(n)` submission) completes — wait on the returned future
/// when you need the read without the stall. The lock is reentrant from
/// the observer callback. All futures returned by `*_async` must be
/// waited on (or the owning session kept alive) before the session is
/// destroyed; destruction drains the driver.
class solver_handle {
 public:
  ~solver_handle();
  solver_handle(const solver_handle&) = delete;
  solver_handle& operator=(const solver_handle&) = delete;

  /// Advance one timestep, then notify the observer (if any). Thin
  /// blocking wrapper over the same stepping body the futures use.
  void step();
  /// Advance `steps` timesteps (blocking wrapper).
  void run(int steps);

  /// Futurized single step: resolves to the metrics snapshot after the
  /// step completes. Equivalent to run_async(1).
  amt::future<runtime_metrics> step_async();
  /// Futurized multi-step: queue `num_steps` steps on the handle's driver
  /// thread and resolve to the metrics snapshot after the last one.
  /// Exceptions thrown while stepping propagate through the future.
  amt::future<runtime_metrics> run_async(int num_steps);

  /// The padded grid (immutable after construction; lock-free).
  const nonlocal::grid2d& grid() const;
  /// The global padded field (distributed: assembled from all SD blocks).
  std::vector<double> field() const;
  /// Synonym for field() mirroring dist_solver::gather().
  std::vector<double> gather() const { return field(); }
  /// Timestep (immutable after construction; lock-free).
  double dt() const;
  int current_step() const;
  /// Serialized ghost-strip traffic so far; 0 for the serial backend.
  std::uint64_t ghost_bytes() const;
  /// Kernel backend every DP update of this handle dispatches to — owned
  /// by this session's solver, independent of other sessions.
  nonlocal::kernel_backend backend() const;

  const scenario& active_scenario() const { return *scenario_; }
  /// Install (or clear, with nullptr) the streaming observer; picked up by
  /// the next step. Safe to call while an async run is in flight.
  void set_observer(step_observer cb);

  /// Max-relative error (Fig. 8 axis) of the current field against the
  /// scenario's exact solution at the current time. Throws
  /// std::logic_error when the scenario has no exact solution.
  double error_vs_exact() const;
  /// Same comparison through the eq.-7 norm e_k.
  double error_ek_vs_exact() const;

  runtime_metrics metrics() const;

  // --- Hibernation (docs/checkpoint.md) -----------------------------------
  /// The primitives a ckpt::hibernation_manager drives (the service_loop's
  /// tenant LRU layer registers them per tenant): serialize the full solver
  /// state into a self-contained delta-codec blob (encoding into `reuse`'s
  /// recycled capacity) and release the in-memory solver / rebuild it from
  /// such a blob, bitwise identical. The managing layer must serialize
  /// these against all stepping of the same handle (the service runs one
  /// job per tenant key at a time) and import_state() before the next use:
  /// a released handle asserts on every solver-state reader. grid(), dt()
  /// and backend() stay valid while released.
  ckpt::snapshot_blob export_and_release(net::byte_buffer reuse = {});
  void import_state(const net::byte_buffer& bytes);
  /// True while the solver state lives in an exported blob only.
  bool hibernated() const;

  /// Everything metrics() reports plus the backend's own instruments
  /// (distributed: ghost traffic counters, message-size and drain-wait
  /// histograms, per-locality busy fractions, compiled-plan shape), as a
  /// plain `obs::metrics_snapshot` under `api/...` / `dist/...` names.
  obs::metrics_snapshot metrics_snapshot() const;
  /// Write metrics_snapshot() as JSON to `path` (obs/metrics_export.hpp).
  void dump_metrics(const std::string& path) const;

 private:
  friend class session;
  /// Rebuilds a fresh impl of the same options — the import_state path
  /// (which then overwrites the rebuilt state bitwise).
  using impl_factory = std::function<std::unique_ptr<solver_impl>()>;
  solver_handle(std::shared_ptr<const scenario> scn,
                std::unique_ptr<solver_impl> impl, impl_factory rebuild);

  /// Caller holds step_mu_.
  std::vector<double> exact_now_locked() const;
  runtime_metrics metrics_locked() const;
  /// Asserts that the solver state is in memory (not exported); caller
  /// holds step_mu_.
  void ensure_resident_locked() const;
  /// The one stepping body behind step/run/step_async/run_async: serialize
  /// behind step_mu_, advance, account wall time, stream observer events.
  runtime_metrics run_steps(int num_steps);
  amt::thread_pool& driver();

  std::shared_ptr<const scenario> scenario_;
  /// Null between export_and_release() and import_state().
  std::unique_ptr<solver_impl> impl_;
  impl_factory rebuild_;
  /// Immutability cache so the documented lock-free accessors (grid(),
  /// dt(), backend()) stay valid while the solver state is exported.
  std::optional<nonlocal::grid2d> cached_grid_;
  double cached_dt_ = 0.0;
  nonlocal::kernel_backend cached_backend_;
  /// Serializes stepping and solver-state readers; recursive so the
  /// observer callback (invoked under it) may call the readers.
  mutable std::recursive_mutex step_mu_;
  mutable std::mutex state_mu_;  ///< guards observer_ and wall_seconds_
  step_observer observer_;
  double wall_seconds_ = 0.0;
  /// Per-step wall latency (internally synchronized; recorded by the
  /// stepping thread, summarized by metrics readers).
  obs::histogram step_latency_hist_;
  std::mutex driver_mu_;
  /// Lazy single-thread driver. Declared after impl_: destroyed first, so
  /// in-flight async tasks drain while the solver body is still alive.
  std::unique_ptr<amt::thread_pool> driver_;
};

/// The facade. Construction validates the options (throwing
/// std::invalid_argument with one actionable message per offence) and, in
/// distributed mode, runs the mesh-dual -> partition -> tiling ->
/// ownership chain; the solver itself is built lazily on first access so
/// partition-only studies stay cheap.
class session {
 public:
  /// All validation failures of `opt`, each naming the offending field;
  /// empty = valid.
  static std::vector<std::string> validate(const session_options& opt);

  explicit session(session_options opt);

  const session_options& options() const { return opt_; }
  const scenario& active_scenario() const { return *scenario_; }

  /// The polymorphic solver (built on first call, initial condition set).
  solver_handle& solver();

  // --- Distribution introspection (distributed mode only; these throw
  // std::logic_error in serial mode) -------------------------------------
  const dist::tiling& sd_tiling() const;
  const dist::ownership_map& ownership() const;
  /// One node id per row-major SD (inactive SDs parked on node 0).
  const std::vector<int>& partition() const;
  /// Scenario mask projected onto the SD grid (full when none).
  const dist::domain_mask& mask() const;
  /// Weighted edge cut (ghost DPs crossing localities) of the partition.
  double partition_edge_cut() const;
  /// Max part weight / ideal part weight of the partition (1.0 = perfect).
  double partition_balance() const;

 private:
  /// The scenario `opt` selects (null when it does not resolve; the
  /// scenario-dependent checks are then skipped) and every validation
  /// failure of `opt`, each naming the offending field.
  struct resolved_options {
    std::shared_ptr<const scenario> scn;
    std::vector<std::string> errors;
  };
  static resolved_options resolve(const session_options& opt);
  void build_distribution();
  void require_distributed(const char* what) const;

  session_options opt_;
  std::shared_ptr<const scenario> scenario_;
  std::optional<dist::tiling> tiling_;
  std::optional<dist::domain_mask> mask_;
  std::vector<int> part_;
  std::optional<dist::ownership_map> own_;
  double edge_cut_ = 0.0;
  double balance_ = 1.0;
  std::unique_ptr<solver_handle> solver_;
};

}  // namespace nlh::api
