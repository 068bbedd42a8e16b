///
/// \file dist_solver.cpp
/// \brief Implementation of the asynchronous distributed solver: the cached
/// step_plan run by per-locality drivers, merged ghost messages, gated
/// case-1/case-2 compute (through the compiled kernel plan), SD migration
/// and checkpoint/restore.
///

#include "dist/dist_solver.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "amt/async.hpp"
#include "balance/auto_rebalancer.hpp"
#include "net/serializer.hpp"
#include "nonlocal/nonlocal_operator.hpp"
#include "obs/tracer.hpp"
#include "support/stopwatch.hpp"

namespace nlh::dist {

const char* overlap_schedule_name(overlap_schedule s) {
  switch (s) {
    case overlap_schedule::bulk_sync: return "bulk_sync";
    case overlap_schedule::coarse: return "coarse";
    case overlap_schedule::per_direction: return "per_direction";
  }
  return "unknown";
}

std::optional<overlap_schedule> parse_overlap_schedule(const std::string& name) {
  if (name == "bulk_sync") return overlap_schedule::bulk_sync;
  if (name == "coarse") return overlap_schedule::coarse;
  if (name == "per_direction") return overlap_schedule::per_direction;
  return std::nullopt;
}

std::vector<std::string> validate(const dist_config& cfg) {
  std::vector<std::string> errs;
  auto err = [&errs](const std::ostringstream& msg) { errs.push_back(msg.str()); };

  if (cfg.sd_rows < 1 || cfg.sd_cols < 1) {
    std::ostringstream m;
    m << "dist_config.sd_rows/sd_cols: the SD grid must be at least 1x1 (got "
      << cfg.sd_rows << "x" << cfg.sd_cols << ")";
    err(m);
  } else if (cfg.sd_rows != cfg.sd_cols) {
    std::ostringstream m;
    m << "dist_config.sd_rows/sd_cols: the global mesh must be square (got "
      << cfg.sd_rows << "x" << cfg.sd_cols << " SDs)";
    err(m);
  }
  if (cfg.sd_size <= 0) {
    std::ostringstream m;
    m << "dist_config.sd_size: DPs per SD side must be positive (got "
      << cfg.sd_size << ")";
    err(m);
  }
  if (cfg.epsilon_factor < 1) {
    std::ostringstream m;
    m << "dist_config.epsilon_factor: ghost width must be at least 1 (got "
      << cfg.epsilon_factor << ")";
    err(m);
  } else if (cfg.sd_size > 0 && cfg.epsilon_factor > cfg.sd_size) {
    std::ostringstream m;
    m << "dist_config.epsilon_factor: ghost width " << cfg.epsilon_factor
      << " exceeds sd_size " << cfg.sd_size
      << "; one neighbor ring can no longer cover the nonlocal horizon "
         "(shrink epsilon_factor or enlarge the SDs)";
    err(m);
  }
  if (cfg.conductivity <= 0.0) {
    std::ostringstream m;
    m << "dist_config.conductivity: must be positive (got " << cfg.conductivity
      << ")";
    err(m);
  }
  if (cfg.dt < 0.0) {
    std::ostringstream m;
    m << "dist_config.dt: must be non-negative; 0 selects the stability bound "
         "* dt_safety (got "
      << cfg.dt << ")";
    err(m);
  }
  if (cfg.dt_safety <= 0.0) {
    std::ostringstream m;
    m << "dist_config.dt_safety: must be positive (got " << cfg.dt_safety << ")";
    err(m);
  }
  if (cfg.threads_per_locality < 1) {
    std::ostringstream m;
    m << "dist_config.threads_per_locality: must be at least 1 (got "
      << cfg.threads_per_locality << ")";
    err(m);
  }
  for (auto& e : balance::validate_rebalance_policy(cfg.rebalance,
                                                    "dist_config.rebalance."))
    errs.push_back(std::move(e));
  if (ckpt::find_codec(cfg.checkpoint.codec) == nullptr) {
    std::ostringstream m;
    m << "dist_config.checkpoint.codec: unknown codec '" << cfg.checkpoint.codec
      << "' (have:";
    for (const auto& n : ckpt::codec_names()) m << " " << n;
    m << ")";
    err(m);
  }
  return errs;
}

namespace {

/// Throwing gate run before any member construction, so a bad config never
/// reaches the tiling/grid asserts.
dist_config validated(dist_config cfg) {
  const auto errs = validate(cfg);
  if (!errs.empty()) {
    std::ostringstream msg;
    msg << "invalid dist_config (" << errs.size() << " problem"
        << (errs.size() > 1 ? "s" : "") << "):";
    for (const auto& e : errs) msg << "\n  - " << e;
    throw std::invalid_argument(msg.str());
  }
  return cfg;
}

}  // namespace

dist_solver::dist_solver(const dist_config& cfg, ownership_map own,
                         std::shared_ptr<const api::scenario> scn)
    : cfg_(validated(cfg)),
      tiling_(cfg.sd_rows, cfg.sd_cols, cfg.sd_size, cfg.epsilon_factor),
      own_(std::move(own)),
      grid_(cfg.sd_cols * cfg.sd_size,
            static_cast<double>(cfg.epsilon_factor) / (cfg.sd_cols * cfg.sd_size)),
      J_(cfg.kind),
      stencil_(grid_, J_),
      c_(J_.scaling_constant(cfg.conductivity, grid_.epsilon())),
      dt_(cfg.dt > 0.0 ? cfg.dt : cfg.dt_safety * nonlocal::stable_dt(c_, stencil_)),
      kernel_plan_(stencil_),
      scenario_(scn ? std::move(scn)
                    : std::make_shared<const api::manufactured_scenario>()),
      comm_(own_.num_nodes()),
      w_field_(grid_.make_field()),
      b_field_(grid_.make_field()) {
  NLH_ASSERT(own_.num_sds() == tiling_.num_sds());
  NLH_ASSERT_MSG(grid_.ghost() == cfg.epsilon_factor,
                 "dist_solver: grid ghost width must equal epsilon_factor");

  pools_.reserve(static_cast<std::size_t>(own_.num_nodes()));
  for (int l = 0; l < own_.num_nodes(); ++l)
    pools_.push_back(std::make_unique<amt::thread_pool>(
        static_cast<unsigned>(cfg.threads_per_locality), l));

  blocks_.reserve(static_cast<std::size_t>(tiling_.num_sds()));
  for (int sd = 0; sd < tiling_.num_sds(); ++sd)
    blocks_.push_back(std::make_unique<sd_block>(tiling_, sd));
  migration_epoch_.assign(static_cast<std::size_t>(tiling_.num_sds()), 0);

  if (cfg_.backend) kernel_plan_.set_backend(*cfg_.backend);
  if (cfg_.rebalance.enabled)
    rebalancer_ = std::make_unique<balance::auto_rebalancer>(cfg_.rebalance);
}

// Out of line: ~unique_ptr<balance::auto_rebalancer> needs the complete type.
dist_solver::~dist_solver() = default;

balance::rebalance_stats dist_solver::rebalance_stats() const {
  return rebalancer_ ? rebalancer_->stats() : balance::rebalance_stats{};
}

net::byte_buffer dist_solver::acquire_buffer() {
  std::lock_guard<std::mutex> lk(buffer_pool_mu_);
  if (buffer_pool_.empty()) return {};
  auto buf = std::move(buffer_pool_.back());
  buffer_pool_.pop_back();
  return buf;
}

void dist_solver::release_buffer(net::byte_buffer buf) {
  std::lock_guard<std::mutex> lk(buffer_pool_mu_);
  buffer_pool_.push_back(std::move(buf));
}

std::uint64_t dist_solver::ghost_tag(const plan_message& msg) const {
  const auto L = static_cast<std::uint64_t>(plan_.localities.size());
  return static_cast<std::uint64_t>(step_) * L * L +
         static_cast<std::uint64_t>(msg.src_locality) * L +
         static_cast<std::uint64_t>(msg.dst_locality);
}

std::uint64_t dist_solver::migration_tag(int sd) const {
  // Bit 63 separates migration traffic from ghost tags; the per-SD
  // migration epoch in bits [32, 63) makes every migration of one SD a
  // distinct tag, so interleaved migrations cannot cross-deliver.
  const std::uint64_t epoch =
      migration_epoch_[static_cast<std::size_t>(sd)] & 0x7fffffffull;
  return (1ull << 63) | (epoch << 32) | static_cast<std::uint64_t>(sd);
}

std::uint64_t dist_solver::migration_epoch(int sd) const {
  NLH_ASSERT(sd >= 0 && sd < tiling_.num_sds());
  return migration_epoch_[static_cast<std::size_t>(sd)];
}

overlap_stats dist_solver::stats() const {
  overlap_stats s;
  s.messages = ghost_msg_bytes_hist_.summary().count;
  s.interior_early = stat_interior_early_.load(std::memory_order_relaxed);
  s.strips_early = stat_strips_early_.load(std::memory_order_relaxed);
  s.wait_seconds = drain_wait_hist_.summary().sum;
  return s;
}

nonlocal::kernel_exec_stats dist_solver::kernel_stats() const {
  auto s = kernel_counts_;
  s.seconds = static_cast<double>(kernel_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return s;
}

void dist_solver::metrics_into(obs::metrics_snapshot& snap) const {
  const auto messages = ghost_msg_bytes_hist_.summary();
  const auto waits = drain_wait_hist_.summary();
  snap.add_counter("dist/ghost/messages", messages.count);
  snap.add_counter("dist/ghost/bytes", static_cast<std::uint64_t>(messages.sum));
  snap.add_counter("dist/overlap/interior_early",
                   stat_interior_early_.load(std::memory_order_relaxed));
  snap.add_counter("dist/overlap/strips_early",
                   stat_strips_early_.load(std::memory_order_relaxed));
  snap.add_gauge("dist/step/wait_seconds", waits.sum);
  snap.add_gauge("dist/step/current", static_cast<double>(step_));
  snap.add_counter("dist/plan/compiles", plan_compiles_);
  kernel_stats().metrics_into(snap, kernel_plan_.blocking());
  snap.add_histogram("dist/ghost/message_bytes", messages);
  snap.add_histogram("dist/step/drain_wait_seconds", waits);
  for (int l = 0; l < own_.num_nodes(); ++l) {
    const auto& pool = *pools_[static_cast<std::size_t>(l)];
    snap.add_gauge("amt/pool#" + std::to_string(l) + "/busy_fraction",
                   pool.busy_fraction());
    snap.add_counter("amt/pool#" + std::to_string(l) + "/tasks", pool.tasks_executed());
  }
  // Plan shape: only meaningful once compiled; a dirty plan (fresh
  // construction, or just after migrate_sd/restore) is skipped rather than
  // reported as all-zero.
  if (!plan_dirty_) {
    snap.add_gauge("dist/plan/messages", static_cast<double>(plan_.total_messages));
    snap.add_gauge("dist/plan/strips", static_cast<double>(plan_.total_strips));
    snap.add_gauge("dist/plan/ready_strips",
                   static_cast<double>(plan_.total_ready_strips));
    snap.add_gauge("dist/plan/local_fills",
                   static_cast<double>(plan_.total_local_fills));
    snap.add_gauge("dist/plan/boundary_sds",
                   static_cast<double>(plan_.boundary_sds));
  }
  if (ckpt_checkpoints_ > 0) {
    snap.add_counter("dist/ckpt/checkpoints", ckpt_checkpoints_);
    snap.add_counter("dist/ckpt/bytes_raw", ckpt_bytes_raw_);
    snap.add_counter("dist/ckpt/bytes_encoded", ckpt_bytes_encoded_);
    snap.add_counter("dist/ckpt/frames_full", ckpt_frames_full_);
    snap.add_counter("dist/ckpt/frames_delta", ckpt_frames_delta_);
    snap.add_gauge("dist/ckpt/compression_ratio",
                   ckpt_bytes_encoded_
                       ? static_cast<double>(ckpt_bytes_raw_) /
                             static_cast<double>(ckpt_bytes_encoded_)
                       : 0.0);
  }
  if (rebalancer_) {
    const auto& rs = rebalancer_->stats();
    snap.add_counter("balance/checks", rs.checks);
    snap.add_counter("balance/epochs", rs.epochs);
    snap.add_counter("balance/moves", rs.moves);
    snap.add_gauge("balance/imbalance_before", rs.last_imbalance_before);
    snap.add_gauge("balance/imbalance_after", rs.last_imbalance_after);
  }
}

void dist_solver::ensure_plan() {
  if (!plan_dirty_) return;
  plan_ = compile_step_plan(tiling_, own_, schedule(), cfg_.threads_per_locality);
  ++plan_compiles_;
  // The plan fixes the kernel work of a step: one apply per rectangle.
  plan_kernel_ = {};
  for (const auto& g : plan_.groups)
    for (const auto& pr : g.rects) {
      const auto& r = pr.rect;
      ++plan_kernel_.applies;
      plan_kernel_.blocks += static_cast<std::uint64_t>(nonlocal::count_blocks(
          kernel_plan_.blocking(), r.row_begin, r.row_end, r.col_begin, r.col_end));
      plan_kernel_.dps += static_cast<std::uint64_t>(r.area());
    }
  NLH_TRACE_INSTANT("dist/plan_compile",
                    static_cast<std::uint64_t>(plan_.total_messages));
  gate_left_ = std::make_unique<std::atomic<int>[]>(plan_.groups.size());
  plan_dirty_ = false;
}

const step_plan& dist_solver::plan() {
  ensure_plan();
  return plan_;
}

void dist_solver::set_initial_condition() {
  const int s = tiling_.sd_size();
  for (int sd = 0; sd < tiling_.num_sds(); ++sd) {
    auto& blk = *blocks_[static_cast<std::size_t>(sd)];
    for (int i = 0; i < s; ++i)
      for (int j = 0; j < s; ++j)
        blk.u()[blk.flat(i, j)] = scenario_->initial(
            grid_.x(blk.origin_col() + j), grid_.y(blk.origin_row() + i));
  }
}

std::uint64_t dist_solver::compute_rect(int sd, const nonlocal::dp_rect& rect,
                                        double t_now) {
  if (rect.empty()) return 0;
  auto& blk = *blocks_[static_cast<std::size_t>(sd)];

  // L_h[u] lands in u_next over `rect` and is updated in place below: every
  // kernel writes exactly its rect and reads only u, and no other task of
  // this step touches this rect of u_next. The per-SD blocks and the
  // scenario's source term share this solver's compiled plan, dispatching
  // to its pinned backend (or the process default when dist_config::backend
  // was unset).
  const auto kt0 = std::chrono::steady_clock::now();
  nonlocal::apply_nonlocal_operator_raw(blk.u().data(), blk.u_next().data(),
                                        blk.stride(), blk.ghost(), kernel_plan_, c_,
                                        rect);
  const auto kt1 = std::chrono::steady_clock::now();

  // The scenario source over the matching global rectangle. Rects of
  // concurrent tasks are disjoint, so the shared scratch is race-free.
  const nonlocal::dp_rect grect{rect.row_begin + blk.origin_row(),
                                rect.row_end + blk.origin_row(),
                                rect.col_begin + blk.origin_col(),
                                rect.col_end + blk.origin_col()};
  scenario_->source_into(context(), t_now, w_field_, grect, b_field_);

  // Whole rows: flat() asserts each row's first and last index, which
  // bounds every element between them.
  const int gi = blk.origin_row(), gj = blk.origin_col();
  for (int i = rect.row_begin; i < rect.row_end; ++i) {
    const auto idx = blk.row_flat(i, rect.col_begin, rect.col_end);
    grid_.flat(gi + i, gj + rect.col_end - 1);
    const auto gidx = grid_.flat(gi + i, gj + rect.col_begin);
    const double* u = blk.u().data() + idx;
    const double* b = b_field_.data() + gidx;
    double* next = blk.u_next().data() + idx;  // holds L_h[u] on entry
    for (int k = 0; k < rect.cols(); ++k) next[k] = u[k] + dt_ * (next[k] + b[k]);
  }
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(kt1 - kt0).count());
}

void dist_solver::step() {
  NLH_TRACE_SPAN_ARG("dist/step", static_cast<std::uint64_t>(step_));
  ensure_plan();
  step_time_ = step_ * dt_;
  ghosts_inflight_.store(plan_.total_messages, std::memory_order_relaxed);
  parts_left_.store(plan_.parts, std::memory_order_relaxed);
  for (std::size_t g = 0; g < plan_.groups.size(); ++g)
    gate_left_[g].store(plan_.groups[g].gate, std::memory_order_relaxed);
  step_done_ = amt::promise<void>();
  auto done = step_done_.get_future();

  // One futurized receive per merged message (a parked promise, no task);
  // its arrival hops onto the owner's pool to unpack.
  for (std::size_t m = 0; m < plan_.messages.size(); ++m) {
    const auto& msg = plan_.messages[m];
    amt::dataflow_one(*pools_[static_cast<std::size_t>(msg.dst_locality)],
                      comm_.recv(msg.dst_locality, msg.src_locality, ghost_tag(msg)),
                      [this, m](amt::future<net::byte_buffer> ready) {
                        unpack_message(static_cast<int>(m), ready.get());
                      });
  }
  for (std::size_t l = 0; l < plan_.localities.size(); ++l)
    if (!plan_.localities[l].sds.empty())
      pools_[l]->post([this, l] { drive(static_cast<int>(l)); });

  // The step's only wait: the last part to finish fulfils `done`.
  support::stopwatch sw;
  {
    NLH_TRACE_SPAN("dist/drain");
    done.wait();
  }
  drain_wait_hist_.record(sw.elapsed_s());
  kernel_counts_.applies += plan_kernel_.applies;
  kernel_counts_.blocks += plan_kernel_.blocks;
  kernel_counts_.dps += plan_kernel_.dps;

  for (auto& blk : blocks_) blk->swap_fields();
  ++step_;

  // The live Algorithm 1 loop (docs/balance.md): with the step complete and
  // the fields swapped, ownership can change safely — any migrations it
  // performs dirty the plan, which recompiles at the top of the next step.
  if (rebalancer_) rebalancer_->on_step(*this);
}

void dist_solver::drive(int locality) noexcept {
  const auto& loc = plan_.localities[static_cast<std::size_t>(locality)];
  const auto boundary_end = loc.sds.begin() + loc.boundary_sds;
  const auto fill_aux = [this, s = tiling_.sd_size()](int sd) {
    const auto& b = *blocks_[static_cast<std::size_t>(sd)];
    const nonlocal::dp_rect r{b.origin_row(), b.origin_row() + s, b.origin_col(),
                              b.origin_col() + s};
    scenario_->fill_aux(context(), step_time_, r, w_field_);
  };
  {
    // The aux field next to the boundary goes out with the messages: a
    // receiver reads it only after unpacking a message sent after this.
    NLH_TRACE_SPAN("dist/aux");
    std::for_each(loc.sds.begin(), boundary_end, fill_aux);
  }
  {
    NLH_TRACE_SPAN("dist/pack_send");
    for (const int m : loc.sends) send_message(m);
  }
  {
    NLH_TRACE_SPAN("dist/aux");
    std::for_each(boundary_end, loc.sds.end(), fill_aux);
  }
  {
    NLH_TRACE_SPAN("dist/collar");
    for (const int sd : loc.sds)
      for (const auto& [d, nb] : plan_.sds[static_cast<std::size_t>(sd)].local_fills)
        blocks_[static_cast<std::size_t>(sd)]->fill_from_local(
            tiling_, d, *blocks_[static_cast<std::size_t>(nb)]);
  }
  for (const int g : loc.groups) open_gate(g, locality);
  finish_part();
}

void dist_solver::send_message(int m) {
  const auto& msg = plan_.messages[static_cast<std::size_t>(m)];
  net::archive_writer w(acquire_buffer());
  for (const auto& gh : msg.ghosts)
    blocks_[static_cast<std::size_t>(gh.src_sd)]->pack(tiling_, opposite(gh.dir), w);
  auto buf = w.take();
  ghost_msg_bytes_hist_.record(static_cast<double>(buf.size()));
  comm_.send(msg.src_locality, msg.dst_locality, ghost_tag(msg), std::move(buf));
}

void dist_solver::unpack_message(int m, net::byte_buffer buf) noexcept {
  const auto& msg = plan_.messages[static_cast<std::size_t>(m)];
  {
    NLH_TRACE_SPAN_ARG("dist/unpack", static_cast<std::uint64_t>(m));
    net::archive_reader r(buf);
    for (const auto& gh : msg.ghosts)
      blocks_[static_cast<std::size_t>(gh.dst_sd)]->unpack(tiling_, gh.dir, r);
    NLH_ASSERT_MSG(r.exhausted(), "dist_solver: trailing bytes in a ghost message");
  }
  release_buffer(std::move(buf));
  ghosts_inflight_.fetch_sub(1, std::memory_order_acq_rel);
  for (const int g : msg.gates) open_gate(g, msg.dst_locality);
  finish_part();
}

void dist_solver::open_gate(int group, int from_locality) noexcept {
  if (gate_left_[static_cast<std::size_t>(group)].fetch_sub(
          1, std::memory_order_acq_rel) != 1)
    return;
  const auto& g = plan_.groups[static_cast<std::size_t>(group)];
  if (g.locality == from_locality)
    run_group(g);
  else
    pools_[static_cast<std::size_t>(g.locality)]->post([this, &g] { run_group(g); });
}

void dist_solver::run_group(const plan_group& g) noexcept {
  const char* span = g.gate == 1 ? "dist/interior" : "dist/strip";
  const auto chunk = [this, &g, span](std::size_t k) {
    NLH_TRACE_SPAN(span);
    std::uint64_t ns = 0, interior_early = 0, strips_early = 0;
    for (int i = g.chunks[k]; i < g.chunks[k + 1]; ++i) {
      const auto& r = g.rects[static_cast<std::size_t>(i)];
      ns += compute_rect(r.sd, r.rect, step_time_);
      if (ghosts_inflight_.load(std::memory_order_acquire) > 0)
        ++(r.strip ? strips_early : interior_early);
    }
    kernel_ns_.fetch_add(ns, std::memory_order_relaxed);
    stat_interior_early_.fetch_add(interior_early, std::memory_order_relaxed);
    stat_strips_early_.fetch_add(strips_early, std::memory_order_relaxed);
  };
  for (std::size_t k = 1; k + 1 < g.chunks.size(); ++k)
    pools_[static_cast<std::size_t>(g.locality)]->post([this, chunk, k] {
      chunk(k);
      finish_part();
    });
  chunk(0);
  finish_part();
}

void dist_solver::finish_part() noexcept {
  // The last part ends the step; nothing may touch step state after it.
  if (parts_left_.fetch_sub(1, std::memory_order_acq_rel) == 1) step_done_.set_value();
}

void dist_solver::run(int steps) {
  for (int k = 0; k < steps; ++k) step();
}

std::vector<double> dist_solver::gather() const {
  auto field = grid_.make_field();
  const int s = tiling_.sd_size();
  for (int sd = 0; sd < tiling_.num_sds(); ++sd) {
    const auto& blk = *blocks_[static_cast<std::size_t>(sd)];
    for (int i = 0; i < s; ++i)
      for (int j = 0; j < s; ++j)
        field[grid_.flat(blk.origin_row() + i, blk.origin_col() + j)] =
            blk.u()[blk.flat(i, j)];
  }
  return field;
}

double dist_solver::busy_fraction(int locality) const {
  NLH_ASSERT(locality >= 0 && locality < own_.num_nodes());
  return pools_[static_cast<std::size_t>(locality)]->busy_fraction();
}

double dist_solver::busy_seconds(int locality) const {
  NLH_ASSERT(locality >= 0 && locality < own_.num_nodes());
  return pools_[static_cast<std::size_t>(locality)]->busy_time_s();
}

void dist_solver::reset_busy_counters() {
  for (auto& pool : pools_) pool->reset_busy_time();
}

void dist_solver::migrate_sd(int sd, int to_node) {
  NLH_ASSERT(sd >= 0 && sd < tiling_.num_sds());
  NLH_ASSERT(to_node >= 0 && to_node < own_.num_nodes());
  const int from = own_.owner(sd);
  if (from == to_node) return;

  // New epoch => new tag: a second migration of this SD can never match a
  // message still in flight from an earlier one.
  ++migration_epoch_[static_cast<std::size_t>(sd)];

  auto& blk = *blocks_[static_cast<std::size_t>(sd)];
  net::archive_writer w;
  w.write(blk.interior());
  comm_.send(from, to_node, migration_tag(sd), w.take());

  const auto buf = comm_.recv(to_node, from, migration_tag(sd)).get();
  net::archive_reader r(buf);
  blk.set_interior(r.read_vector<double>());

  own_.set_owner(sd, to_node);
  plan_dirty_ = true;  // the schedule depends on the ownership map
}

namespace {

/// Snapshot header magic ("NLK1"): rejects the PR-7-era raw format and
/// arbitrary byte garbage before any frame decoding starts.
constexpr std::uint32_t kCkptMagic = 0x4e4c4b31;

}  // namespace

net::byte_buffer dist_solver::checkpoint() { return encode_checkpoint(true); }

net::byte_buffer dist_solver::checkpoint_full() { return encode_checkpoint(false); }

net::byte_buffer dist_solver::encode_checkpoint(bool chain) {
  NLH_TRACE_SPAN("dist/checkpoint");
  const ckpt::codec* codec = ckpt::find_codec(cfg_.checkpoint.codec);
  NLH_ASSERT_MSG(codec != nullptr, "dist_solver: unknown checkpoint codec");

  // A delta blob needs a baseline to diff against; the chain's first
  // checkpoint (and every checkpoint_full()) is full.
  const bool delta_kind = chain && ckpt_baseline_.has_value();
  const std::uint64_t seq = ckpt_seq_++;

  net::archive_writer w;
  w.write(kCkptMagic);
  w.write(static_cast<std::uint8_t>(delta_kind ? 'I' : 'F'));
  w.write(codec->name());
  w.write(seq);
  if (delta_kind) w.write(ckpt_baseline_->seq);
  w.write(static_cast<std::int64_t>(step_));
  w.write(own_.raw());

  ckpt_baseline next_baseline;
  if (chain && !delta_kind) {
    next_baseline.seq = seq;
    next_baseline.interiors.resize(static_cast<std::size_t>(tiling_.num_sds()));
    next_baseline.epochs = migration_epoch_;
  }

  for (int sd = 0; sd < tiling_.num_sds(); ++sd) {
    const auto i = static_cast<std::size_t>(sd);
    std::vector<double> vals = blocks_[i]->interior();
    // Per-SD fallback: an SD that migrated since the baseline was anchored
    // gets a full frame (real deployments lose the baseline copy with the
    // move); everything else diffs against the anchor.
    const bool delta_frame =
        delta_kind && migration_epoch_[i] == ckpt_baseline_->epochs[i];
    w.write(static_cast<std::uint8_t>(delta_frame ? 'D' : 'F'));
    w.write(migration_epoch_[i]);
    const auto st = codec->encode(
        vals.data(), vals.size(),
        delta_frame ? ckpt_baseline_->interiors[i].data() : nullptr, w);
    ckpt_bytes_raw_ += st.raw_bytes;
    ckpt_bytes_encoded_ += st.encoded_bytes;
    (delta_frame ? ckpt_frames_delta_ : ckpt_frames_full_) += 1;
    if (chain && !delta_kind) next_baseline.interiors[i] = std::move(vals);
  }
  ++ckpt_checkpoints_;

  if (chain && !delta_kind) ckpt_baseline_ = std::move(next_baseline);
  return w.take();
}

void dist_solver::restore(const net::byte_buffer& state) {
  NLH_TRACE_SPAN("dist/restore");
  net::archive_reader r(state);
  NLH_ASSERT_MSG(r.read<std::uint32_t>() == kCkptMagic,
                 "dist_solver::restore: not a checkpoint blob");
  const auto kind = r.read<std::uint8_t>();
  NLH_ASSERT_MSG(kind == 'F' || kind == 'I',
                 "dist_solver::restore: unknown snapshot kind");
  const ckpt::codec* codec = ckpt::find_codec(r.read_string());
  NLH_ASSERT_MSG(codec != nullptr, "dist_solver::restore: unknown codec in blob");
  const auto seq = r.read<std::uint64_t>();
  if (kind == 'I') {
    const auto base_seq = r.read<std::uint64_t>();
    NLH_ASSERT_MSG(ckpt_baseline_.has_value() && ckpt_baseline_->seq == base_seq,
                   "dist_solver::restore: delta snapshot without its baseline");
  }
  step_ = static_cast<int>(r.read<std::int64_t>());
  const auto owners = r.read_vector<int>();
  NLH_ASSERT_MSG(owners.size() == static_cast<std::size_t>(tiling_.num_sds()),
                 "dist_solver::restore: SD count mismatch");
  for (int sd = 0; sd < tiling_.num_sds(); ++sd)
    own_.set_owner(sd, owners[static_cast<std::size_t>(sd)]);

  const auto n_interior =
      static_cast<std::size_t>(tiling_.sd_size()) * tiling_.sd_size();
  std::vector<double> vals(n_interior);
  ckpt_baseline next_baseline;
  if (kind == 'F') {
    next_baseline.seq = seq;
    next_baseline.interiors.resize(static_cast<std::size_t>(tiling_.num_sds()));
    next_baseline.epochs = migration_epoch_;
  }
  for (int sd = 0; sd < tiling_.num_sds(); ++sd) {
    const auto i = static_cast<std::size_t>(sd);
    const auto frame_kind = r.read<std::uint8_t>();
    NLH_ASSERT_MSG(frame_kind == 'F' || frame_kind == 'D',
                   "dist_solver::restore: unknown frame kind");
    r.read<std::uint64_t>();  // encode-time migration epoch, informational
    const double* prev = nullptr;
    if (frame_kind == 'D') {
      NLH_ASSERT_MSG(ckpt_baseline_.has_value(),
                     "dist_solver::restore: delta frame without a baseline");
      prev = ckpt_baseline_->interiors[i].data();
    }
    codec->decode(r, vals.data(), vals.size(), prev);
    auto& blk = *blocks_[i];
    std::fill(blk.u().begin(), blk.u().end(), 0.0);
    std::fill(blk.u_next().begin(), blk.u_next().end(), 0.0);
    blk.set_interior(vals);
    if (kind == 'F') next_baseline.interiors[i] = vals;
  }
  NLH_ASSERT_MSG(r.exhausted(), "dist_solver::restore: trailing bytes in snapshot");
  // Restoring a full snapshot re-anchors the incremental chain on it, the
  // way taking one does; restoring a delta leaves the baseline standing so
  // its siblings stay restorable.
  if (kind == 'F') ckpt_baseline_ = std::move(next_baseline);
  if (ckpt_seq_ <= seq) ckpt_seq_ = seq + 1;
  plan_dirty_ = true;  // the snapshot may carry a different ownership map
}

}  // namespace nlh::dist
