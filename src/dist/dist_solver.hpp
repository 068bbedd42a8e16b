#pragma once
///
/// \file dist_solver.hpp
/// \brief The fully asynchronous distributed solver (paper §6): per-SD
/// forward-Euler stepping on per-locality AMT thread pools with futurized
/// ghost exchange over net::comm_world.
///
/// Each timestep executes a cached **step_plan** (docs/overlap.md),
/// compiled on the first step and after migrate_sd/restore. The stepping
/// thread posts one receive per merged message and one driver task per
/// locality, then waits on one per-step future. A driver fills the aux
/// field of its boundary SDs, sends one message per peer locality, fills
/// the rest of its aux field and its same-locality collars, and computes
/// its early rectangles (case-2 interiors, and under per_direction the
/// strips that read no foreign collar) while the messages are in flight.
/// One continuation per arriving message unpacks it on the owner's pool,
/// and each group of gated rectangles runs once the messages of its gate
/// are unpacked and its locality's local phase is done; the schedules
/// differ only in those gates. No pool task ever blocks, so per-locality
/// busy time — Algorithm 1's input — measures work. `migrate_sd` is
/// Algorithm 1's migration primitive; checkpoint/restore snapshot step
/// counter, ownership and fields into a self-contained byte buffer.
///
/// The solver reproduces the serial reference bitwise for every
/// decomposition, ownership, schedule and thread count: every DP update
/// reads the same double values through the same stencil entry order,
/// whether its inputs arrived by collar copy or by message. Both solvers
/// route the update through one compiled stencil_plan that owns its kernel
/// backend (pinned per solver via dist_config::backend, else the process
/// default — docs/kernels.md), so the property holds per backend and
/// solvers with different backends coexist in one process. Messages are
/// packed from the SD fields into pooled buffers that the receive side
/// recycles, and unpacked straight into the collars.
///

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "amt/thread_pool.hpp"
#include "api/scenario.hpp"
#include "balance/policy.hpp"
#include "ckpt/codec.hpp"
#include "dist/ownership.hpp"
#include "dist/sd_block.hpp"
#include "dist/step_plan.hpp"
#include "dist/tiling.hpp"
#include "net/comm_world.hpp"
#include "nonlocal/influence.hpp"
#include "obs/metrics.hpp"
#include "nonlocal/kernel/stencil_plan.hpp"
#include "nonlocal/stencil.hpp"

namespace nlh::balance {
class auto_rebalancer;
}

namespace nlh::dist {

const char* overlap_schedule_name(overlap_schedule s);
/// Parse "bulk_sync" / "coarse" / "per_direction"; nullopt on anything else.
std::optional<overlap_schedule> parse_overlap_schedule(const std::string& name);

struct dist_config {
  int sd_rows = 1;
  int sd_cols = 1;
  int sd_size = 8;              ///< DPs per SD side
  int epsilon_factor = 2;       ///< epsilon = factor * h; also the ghost width
  double conductivity = 1.0;
  double dt = 0.0;              ///< 0 = stability bound * dt_safety
  double dt_safety = 0.5;
  nonlocal::influence_kind kind = nonlocal::influence_kind::constant;
  int threads_per_locality = 1;
  /// Which overlap schedule step() executes (see overlap_schedule;
  /// per_direction is the fastest and the default, coarse and bulk_sync —
  /// wait for every ghost before any compute — remain for ablation).
  overlap_schedule schedule = overlap_schedule::per_direction;
  /// Kernel backend this solver's plan is pinned to; nullopt keeps the
  /// plan following the process default (the historical behaviour).
  std::optional<nonlocal::kernel_backend> backend;
  /// Live Algorithm 1 policy (docs/balance.md): when enabled, the solver
  /// owns a balance::auto_rebalancer and runs it after every completed
  /// step, migrating SDs between its own localities whenever the measured
  /// busy-time imbalance reaches the trigger. Disabled (the default) keeps
  /// the historical static partition.
  balance::rebalance_policy rebalance;
  /// How checkpoint() encodes snapshots (docs/checkpoint.md): which frame
  /// codec compresses the per-SD interiors.
  ckpt::checkpoint_options checkpoint;
};

/// All validation failures of `cfg`, each naming the offending field
/// ("dist_config.sd_size: ..."); empty = valid. dist_solver construction
/// runs this and throws std::invalid_argument on the first build error,
/// instead of asserting deep inside tiling.
std::vector<std::string> validate(const dist_config& cfg);

/// Cumulative overlap observables of one dist_solver (counted since
/// construction, by every schedule). "Early" means the rectangle finished
/// while one of the step's ghost messages was still not unpacked — the
/// direct evidence that compute hid communication.
struct overlap_stats {
  std::uint64_t messages = 0;        ///< merged ghost messages exchanged
  std::uint64_t interior_early = 0;  ///< case-2 rectangles that finished early
  std::uint64_t strips_early = 0;    ///< case-1 strips that finished early
  double wait_seconds = 0.0;  ///< stepping thread blocked on the step's future
};

class dist_solver {
 public:
  /// \param scn the workload scenario; null selects the manufactured
  /// problem (the historical hard-wired behaviour, bit for bit).
  /// Throws std::invalid_argument when validate(cfg) reports problems.
  dist_solver(const dist_config& cfg, ownership_map own,
              std::shared_ptr<const api::scenario> scn = nullptr);
  ~dist_solver();

  dist_solver(const dist_solver&) = delete;
  dist_solver& operator=(const dist_solver&) = delete;

  const nonlocal::grid2d& grid() const { return grid_; }
  const tiling& sd_tiling() const { return tiling_; }
  const ownership_map& owners() const { return own_; }
  net::comm_world& comm() { return comm_; }
  const net::comm_world& comm() const { return comm_; }

  double dt() const { return dt_; }
  double scaling_constant() const { return c_; }
  int current_step() const { return step_; }
  const api::scenario& active_scenario() const { return *scenario_; }
  const nonlocal::stencil_plan& kernel_plan() const { return kernel_plan_; }
  /// Backend every DP update of this solver dispatches to (the pinned one
  /// when dist_config::backend was set, else the process default).
  nonlocal::kernel_backend backend() const { return kernel_plan_.backend(); }

  /// Initialize every owned SD to the scenario's initial condition.
  void set_initial_condition();

  /// Advance one asynchronous timestep (ghost exchange + case-1/case-2
  /// compute + field swap) across all localities.
  void step();
  void run(int steps);

  /// Assemble the global padded field from all SD blocks (collar zero).
  std::vector<double> gather() const;

  /// Bytes of serialized ghost strips sent since construction (excludes
  /// migration traffic): the sum of `dist/ghost/message_bytes`.
  std::uint64_t ghost_bytes() const {
    return static_cast<std::uint64_t>(ghost_msg_bytes_hist_.summary().sum);
  }

  /// The schedule step() executes (dist_config::schedule).
  overlap_schedule schedule() const { return cfg_.schedule; }

  /// Snapshot of the cumulative overlap observables (see overlap_stats).
  overlap_stats stats() const;

  /// Cumulative kernel execution counters of the completed steps: operator
  /// applies, blocks walked and DPs updated, as each step's plan fixes
  /// them, and the seconds compute_rect spent in the kernel. Feeds the
  /// kernel/* observables in metrics_into; call serialized with step().
  nonlocal::kernel_exec_stats kernel_stats() const;

  /// Append this solver's distributed-layer instruments to `snap` under
  /// `dist/...` names (ghost traffic counters, message-size and drain-wait
  /// histograms, per-locality busy fractions, compiled-plan shape gauges).
  /// Call serialized with step()/migrate_sd()/restore(), like gather() —
  /// the api layer does so under its step lock.
  void metrics_into(obs::metrics_snapshot& snap) const;

  /// Times this SD has been migrated since construction — the epoch mixed
  /// into migration tags so interleaved migrations of one SD can't
  /// cross-deliver.
  std::uint64_t migration_epoch(int sd) const;

  /// The compiled schedule of the current (tiling, ownership) pair; compiled
  /// lazily on the first step after construction/migration/restore.
  const step_plan& plan();

  /// Times ensure_plan() actually recompiled the step plan since
  /// construction. Stays at 1 across any number of steps on a static
  /// partition and grows only by epochs that really moved SDs — the cheap
  /// observable auto_rebalance_test uses to prove rebalancing does not
  /// invalidate the cached plan spuriously.
  std::uint64_t plan_compiles() const { return plan_compiles_; }

  /// The live rebalancer, or null when dist_config::rebalance.enabled was
  /// false. Exposed so tests/benches can inject a synthetic busy-time
  /// sampler or observe per-epoch reports; call only serialized with
  /// step(), like gather().
  balance::auto_rebalancer* rebalancer() { return rebalancer_.get(); }
  const balance::auto_rebalancer* rebalancer() const { return rebalancer_.get(); }

  /// Cumulative auto-rebalancing observables; all-zero when rebalancing is
  /// disabled.
  balance::rebalance_stats rebalance_stats() const;

  /// Busy-time fraction of one locality's pool since the last reset — the
  /// observable Algorithm 1 consumes.
  double busy_fraction(int locality) const;
  /// Cumulative busy seconds of the same pool since the last reset
  /// (busy_fraction's numerator). Per measurement window, the max over
  /// localities is the window's critical path — what the balance gate
  /// bench sums into a makespan model that oversubscribed CI boxes cannot
  /// distort the way raw wall-clock is distorted.
  double busy_seconds(int locality) const;
  void reset_busy_counters();

  /// Move one SD to `to_node`: its field travels through the network as a
  /// serialized message and the ownership map is updated. A move to the
  /// current owner is a no-op (no traffic).
  void migrate_sd(int sd, int to_node);

  /// Snapshot the solver — step counter, ownership, every SD's interior
  /// field — through the configured frame codec (docs/checkpoint.md), as
  /// an incremental chain: the first call emits a full snapshot that
  /// becomes the chain's baseline; later calls emit delta frames against
  /// it, falling back to a full frame for any SD that migrated since the
  /// baseline. Every blob in the chain stays restorable while the baseline
  /// stands (i.e. until a full snapshot is taken or restored); restore()
  /// asserts the match via sequence numbers.
  net::byte_buffer checkpoint();
  /// Self-contained snapshot: every frame full, restorable on any
  /// identically-configured solver with no baseline — the hibernation/
  /// export path. Leaves the incremental chain's baseline untouched.
  net::byte_buffer checkpoint_full();
  void restore(const net::byte_buffer& state);

 private:
  /// One forward-Euler update over a local-coordinate rectangle of `sd`;
  /// returns the nanoseconds spent in the kernel.
  std::uint64_t compute_rect(int sd, const nonlocal::dp_rect& rect, double t_now);

  /// Recompile the step plan when ownership changed (migration/restore),
  /// and total the kernel work one step under it does.
  void ensure_plan();

  /// step * L^2 + src * L + dst: the tag of one merged ghost message.
  std::uint64_t ghost_tag(const plan_message& msg) const;
  std::uint64_t migration_tag(int sd) const;

  /// Pop a recycled message buffer (empty when the pool is dry); the
  /// receive side returns consumed buffers through release_buffer, so
  /// steady-state stepping stops allocating on the serialization path.
  net::byte_buffer acquire_buffer();
  void release_buffer(net::byte_buffer buf);

  // The parts of one step (docs/overlap.md). Each ends in finish_part(), never
  // blocks, and is noexcept: a scenario throw ends the process, not the step.
  /// A locality's driver: boundary aux, sends, the rest of the aux field,
  /// same-locality collars, then opens its groups' local gates (the early
  /// group runs right away).
  void drive(int locality) noexcept;
  void send_message(int m);
  /// Decode every strip of message `m` into its collar, recycle the
  /// buffer, then open the gates it feeds.
  void unpack_message(int m, net::byte_buffer buf) noexcept;
  /// Count one input of `group` done; the last one runs the group, inline
  /// when it arrived on the group's own locality, else on that pool.
  void open_gate(int group, int from_locality) noexcept;
  /// Run `g` as one part: chunks 1.. go to its pool, chunk 0 runs here.
  void run_group(const plan_group& g) noexcept;
  void finish_part() noexcept;

  api::scenario_context context() const { return {&grid_, &kernel_plan_, c_}; }

  dist_config cfg_;
  tiling tiling_;
  ownership_map own_;
  nonlocal::grid2d grid_;
  nonlocal::influence J_;
  nonlocal::stencil stencil_;
  double c_;
  double dt_;
  nonlocal::stencil_plan kernel_plan_;
  std::shared_ptr<const api::scenario> scenario_;

  std::vector<std::unique_ptr<amt::thread_pool>> pools_;
  /// Declared after pools_ so it is destroyed first: its delivery timer
  /// thread posts unpacks to the pools, and is joined while they live.
  net::comm_world comm_;
  std::vector<std::unique_ptr<sd_block>> blocks_;
  std::vector<double> w_field_;  ///< scenario aux field (global grid)
  std::vector<double> b_field_;  ///< scenario source scratch

  std::mutex buffer_pool_mu_;
  std::vector<net::byte_buffer> buffer_pool_;  ///< recycled message buffers

  step_plan plan_;
  bool plan_dirty_ = true;
  std::uint64_t plan_compiles_ = 0;
  /// Applies, blocks and DPs of one step under plan_ (seconds unused).
  nonlocal::kernel_exec_stats plan_kernel_;

  /// The live Algorithm 1 loop (docs/balance.md); null unless
  /// cfg_.rebalance.enabled. step() calls its on_step() after the field
  /// swap, so migrations land between steps and the recompiled plan is
  /// what the next step executes.
  std::unique_ptr<balance::auto_rebalancer> rebalancer_;

  // Per-step state, reset by step() before it posts anything: the inputs
  // each group still waits for, the parts the step still counts, and the
  // promise the last part fulfils.
  std::unique_ptr<std::atomic<int>[]> gate_left_;
  std::atomic<int> parts_left_{0};
  amt::promise<void> step_done_;
  double step_time_ = 0.0;  ///< t of the running step

  /// Per-SD migration counter mixed into migration tags.
  std::vector<std::uint64_t> migration_epoch_;

  /// Incremental-checkpoint chain state (docs/checkpoint.md): the values
  /// and per-SD migration epochs of the chain's anchoring full snapshot,
  /// plus the sequence number restore() uses to reject a delta blob whose
  /// baseline this solver no longer holds.
  struct ckpt_baseline {
    std::uint64_t seq = 0;
    std::vector<std::vector<double>> interiors;  ///< per SD
    std::vector<std::uint64_t> epochs;           ///< migration epoch per SD
  };
  /// `chain`: checkpoint()'s incremental chain; else checkpoint_full().
  net::byte_buffer encode_checkpoint(bool chain);
  std::optional<ckpt_baseline> ckpt_baseline_;
  std::uint64_t ckpt_seq_ = 0;

  // dist/ckpt/* observables; written only on the (serialized) checkpoint
  // path, read by metrics_into under the same serialization.
  std::uint64_t ckpt_checkpoints_ = 0;
  std::uint64_t ckpt_bytes_raw_ = 0;
  std::uint64_t ckpt_bytes_encoded_ = 0;
  std::uint64_t ckpt_frames_full_ = 0;
  std::uint64_t ckpt_frames_delta_ = 0;

  // Overlap observables (see overlap_stats). ghosts_inflight_ counts the
  // current step's messages not yet unpacked; rectangles that finish while
  // it is non-zero count as early, added once per chunk.
  std::atomic<int> ghosts_inflight_{0};
  std::atomic<std::uint64_t> stat_interior_early_{0};
  std::atomic<std::uint64_t> stat_strips_early_{0};

  // kernel/* observables: step() adds plan_kernel_ after each drain (one
  // writer); each chunk adds its rectangles' kernel nanoseconds once.
  nonlocal::kernel_exec_stats kernel_counts_;
  std::atomic<std::uint64_t> kernel_ns_{0};

  int step_ = 0;

  // Observability instruments (docs/observability.md), each the one store
  // of its observable: merged ghost message sizes in bytes (recorded by
  // the drivers, mutex-guarded internally; count = messages, sum = ghost
  // bytes) and the stepping thread's per-step wait in seconds (sum = the
  // total wait).
  obs::histogram ghost_msg_bytes_hist_{obs::histogram_options{1.0, 1e9, 4}};
  obs::histogram drain_wait_hist_;
};

}  // namespace nlh::dist
