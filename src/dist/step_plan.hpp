#pragma once
///
/// \file step_plan.hpp
/// \brief The compiled per-solver schedule of one distributed timestep.
///
/// A step_plan is compiled once from (tiling, ownership, schedule, workers
/// per locality) and reused until a migration or restore changes the
/// ownership map. It splits the step by locality (docs/overlap.md):
///
/// - **messages**: one per (source, destination) locality pair that shares
///   an SD boundary, carrying all of the pair's ghost strips in plan order.
/// - **localities**: each driver's owned SDs boundary-first (their aux field
///   is filled before the sends, so a message also publishes the sender's
///   w next to the boundary) and the messages it sends.
/// - **groups**: a locality's rectangles, grouped by gate. A group runs
///   once every message of its gate is unpacked and its locality's local
///   phase (aux field, same-locality collars) is done. The *early* group,
///   whose gate holds no message, reads only its own locality's data and
///   runs right after the local phase.
///
/// The schedules differ only in the gates: per_direction gates a fine strip
/// on the messages its halo reads, coarse gates all of an SD's strips on
/// every message the SD reads, and bulk_sync gates every rectangle,
/// interiors included, on every message of the step.
///

#include <cstdint>
#include <utility>
#include <vector>

#include "dist/ownership.hpp"
#include "dist/tiling.hpp"

namespace nlh::dist {

/// Task schedule of the ghost exchange: which gate each rectangle gets.
enum class overlap_schedule {
  /// Every rectangle, interiors included, waits for every message of the
  /// step — no communication hiding.
  bulk_sync,
  /// Case-2 overlaps; all of an SD's case-1 strips wait for every message
  /// the SD reads (the original overlap schedule, kept for ablation).
  coarse,
  /// Case-2 overlaps; each case-1 strip waits for exactly the messages its
  /// epsilon-halo reads (the default).
  per_direction,
};

/// The cached per-SD geometry the locality lists are built from.
struct plan_sd {
  case_split split;  ///< coarse split (interior + full-margin strips)
  std::vector<std::pair<direction, int>> local_fills;  ///< same-locality collars
  /// Cross-locality collars: (direction, index into step_plan::messages).
  std::vector<std::pair<direction, int>> recvs;
  std::vector<strip_dep> strips;  ///< fine strips with >= 1 remote dependency
  /// Fine case-1 strips whose halo reads no cross-locality collar.
  std::vector<nonlocal::dp_rect> ready_strips;
  bool boundary = false;  ///< has at least one cross-locality neighbor
};

/// One rectangle of one SD; `strip` picks the early-completion counter.
struct plan_rect {
  int sd;
  nonlocal::dp_rect rect;
  bool strip;
};

/// One ghost strip of a merged message.
struct plan_ghost {
  int src_sd;     ///< packs its send strip toward opposite(dir)
  int dst_sd;     ///< receives it into the collar facing `dir`
  direction dir;
};

/// Every strip one locality sends another in one step.
struct plan_message {
  int src_locality;
  int dst_locality;
  std::vector<plan_ghost> ghosts;  ///< wire order
  std::vector<int> gates;          ///< groups this message's unpack opens
};

/// Rectangles of one locality that share a gate. They run as
/// `chunks.size() - 1` contiguous chunks of about equal DP count, at most
/// one per worker of the locality: chunk k is rects[chunks[k], chunks[k + 1]).
struct plan_group {
  int locality;
  int gate;  ///< messages in the gate + 1 for the local phase
  std::vector<plan_rect> rects;
  std::vector<int> chunks{0};
};

struct plan_locality {
  std::vector<int> sds;   ///< owned SDs, boundary SDs first
  int boundary_sds = 0;   ///< sds[0, boundary_sds) have a remote neighbor
  std::vector<int> sends;   ///< messages this locality packs and sends
  std::vector<int> groups;  ///< its groups in gate order, the early one first
};

struct step_plan {
  std::vector<plan_sd> sds;
  std::vector<plan_locality> localities;
  std::vector<plan_message> messages;
  std::vector<plan_group> groups;
  /// Completions one step counts down: a driver per locality with SDs, an
  /// unpack per message, each group, and every chunk beyond a group's first.
  int parts = 0;

  // Aggregate schedule shape, totalled at compile time — exposed as
  // `dist/plan/...` gauges by the observability layer.
  int total_messages = 0;      ///< merged messages per step
  int total_strips = 0;        ///< fine case-1 strips with >= 1 remote dep
  int total_ready_strips = 0;  ///< fine case-1 strips with no remote dep
  int total_local_fills = 0;   ///< same-locality collar copies per step
  int boundary_sds = 0;        ///< SDs with >= 1 cross-locality neighbor
};

/// Compile the schedule for `t` under `own`, gating rectangles per `sched`
/// and chunking each group for `workers` threads per locality.
/// Deterministic: both ends of a message derive the same wire order.
step_plan compile_step_plan(const tiling& t, const ownership_map& own,
                            overlap_schedule sched, int workers);

}  // namespace nlh::dist
