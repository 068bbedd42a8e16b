// Tests for SD tiling geometry, ownership maps, the case-1/case-2 split and
// sd_block pack/unpack.

#include <gtest/gtest.h>

#include "dist/ownership.hpp"
#include "dist/sd_block.hpp"
#include "dist/tiling.hpp"
#include "net/serializer.hpp"

namespace dist = nlh::dist;
namespace net = nlh::net;
using dist::direction;

// ---------------------------------------------------------------- tiling ----

TEST(Tiling, BasicGeometry) {
  dist::tiling t(5, 5, 4, 1);  // the paper's Fig. 2: 5x5 SDs of 4x4 DPs
  EXPECT_EQ(t.num_sds(), 25);
  EXPECT_EQ(t.mesh_rows(), 20);
  EXPECT_EQ(t.mesh_cols(), 20);
  EXPECT_EQ(t.sd_row(7), 1);
  EXPECT_EQ(t.sd_col(7), 2);
  EXPECT_EQ(t.sd_at(1, 2), 7);
  EXPECT_EQ(t.origin_row(7), 4);
  EXPECT_EQ(t.origin_col(7), 8);
}

TEST(Tiling, NeighborLookup) {
  dist::tiling t(3, 3, 4, 1);
  EXPECT_EQ(t.neighbor(4, direction::north), 1);
  EXPECT_EQ(t.neighbor(4, direction::southeast), 8);
  EXPECT_FALSE(t.neighbor(0, direction::north).has_value());
  EXPECT_FALSE(t.neighbor(0, direction::west).has_value());
  EXPECT_FALSE(t.neighbor(8, direction::southeast).has_value());
}

TEST(Tiling, NeighborCounts) {
  dist::tiling t(3, 3, 4, 1);
  EXPECT_EQ(t.neighbors(4).size(), 8u);  // center
  EXPECT_EQ(t.neighbors(0).size(), 3u);  // corner
  EXPECT_EQ(t.neighbors(1).size(), 5u);  // edge
}

TEST(Tiling, OppositeDirections) {
  for (int d = 0; d < dist::num_directions; ++d) {
    const auto dir = static_cast<direction>(d);
    EXPECT_EQ(dist::opposite(dist::opposite(dir)), dir);
    const auto [dr, dc] = dist::direction_offset(dir);
    const auto [or_, oc] = dist::direction_offset(dist::opposite(dir));
    EXPECT_EQ(dr, -or_);
    EXPECT_EQ(dc, -oc);
  }
}

TEST(Tiling, SendRectShapes) {
  dist::tiling t(2, 2, 8, 2);
  const auto north = t.send_rect(direction::north);
  EXPECT_EQ(north.rows(), 2);
  EXPECT_EQ(north.cols(), 8);
  EXPECT_EQ(north.row_begin, 0);
  const auto south = t.send_rect(direction::south);
  EXPECT_EQ(south.row_begin, 6);
  EXPECT_EQ(south.row_end, 8);
  const auto se = t.send_rect(direction::southeast);
  EXPECT_EQ(se.area(), 4);  // ghost x ghost corner
  EXPECT_EQ(se.row_begin, 6);
  EXPECT_EQ(se.col_begin, 6);
}

TEST(Tiling, RecvRectsLieInCollar) {
  dist::tiling t(2, 2, 8, 2);
  const auto from_north = t.recv_rect(direction::north);
  EXPECT_EQ(from_north.row_begin, -2);
  EXPECT_EQ(from_north.row_end, 0);
  EXPECT_EQ(from_north.col_begin, 0);
  EXPECT_EQ(from_north.col_end, 8);
  const auto from_se = t.recv_rect(direction::southeast);
  EXPECT_EQ(from_se.row_begin, 8);
  EXPECT_EQ(from_se.col_begin, 8);
  EXPECT_EQ(from_se.area(), 4);
}

TEST(Tiling, SendRecvAreasMatch) {
  dist::tiling t(3, 3, 6, 2);
  for (int d = 0; d < dist::num_directions; ++d) {
    const auto dir = static_cast<direction>(d);
    EXPECT_EQ(t.send_rect(dist::opposite(dir)).area(), t.recv_rect(dir).area());
  }
}

TEST(Tiling, StripDps) {
  dist::tiling t(2, 2, 10, 3);
  EXPECT_EQ(t.strip_dps(direction::east), 30);
  EXPECT_EQ(t.strip_dps(direction::northwest), 9);
}

// -------------------------------------------------------------- ownership ----

TEST(Ownership, SingleNodeOwnsAll) {
  dist::tiling t(3, 3, 4, 1);
  auto own = dist::ownership_map::single_node(t);
  EXPECT_EQ(own.num_nodes(), 1);
  for (int sd = 0; sd < 9; ++sd) EXPECT_EQ(own.owner(sd), 0);
  EXPECT_EQ(own.sds_of(0).size(), 9u);
}

TEST(Ownership, FromPartitionAndCounts) {
  dist::tiling t(2, 2, 4, 1);
  auto own = dist::ownership_map::from_partition(t, 2, {0, 0, 1, 1});
  EXPECT_EQ(own.sd_counts(), (std::vector<int>{2, 2}));
  EXPECT_EQ(own.sds_of(1), (std::vector<int>{2, 3}));
}

TEST(Ownership, NodeAdjacency) {
  // 3x3 grid split into three vertical strips: 0-1 and 1-2 adjacent (and
  // 0-2 via diagonals of the middle column? no: strips of width 1, columns
  // 0/1/2 -> SDs of node 0 touch node 1 and diagonally node 2? Column 0 and
  // column 2 SDs are 2 apart: not neighbors. So 0-2 not adjacent).
  dist::tiling t(3, 3, 4, 1);
  std::vector<int> owner{0, 1, 2, 0, 1, 2, 0, 1, 2};
  dist::ownership_map own(t, 3, owner);
  const auto adj = own.node_adjacency(t);
  EXPECT_EQ(adj[0], (std::vector<int>{1}));
  EXPECT_EQ(adj[1], (std::vector<int>{0, 2}));
  EXPECT_EQ(adj[2], (std::vector<int>{1}));
}

TEST(Ownership, SetOwnerUpdates) {
  dist::tiling t(2, 2, 4, 1);
  auto own = dist::ownership_map::from_partition(t, 2, {0, 0, 0, 0});
  own.set_owner(3, 1);
  EXPECT_EQ(own.owner(3), 1);
  EXPECT_EQ(own.sd_counts(), (std::vector<int>{3, 1}));
}

// -------------------------------------------------------------- case split ----

TEST(CaseSplit, AllLocalMeansFullInterior) {
  dist::tiling t(3, 3, 8, 2);
  std::vector<int> owner(9, 0);
  const auto split = dist::compute_case_split(t, 4, owner);
  EXPECT_TRUE(split.remote_strips.empty());
  EXPECT_EQ(split.interior_dps(), 64);
}

TEST(CaseSplit, RemoteEastMakesRightStrip) {
  dist::tiling t(1, 2, 8, 2);
  std::vector<int> owner{0, 1};
  const auto split = dist::compute_case_split(t, 0, owner);
  EXPECT_EQ(split.interior.col_end, 6);  // right margin of ghost width 2
  EXPECT_EQ(split.interior_dps(), 8 * 6);
  EXPECT_EQ(split.strip_dps(), 8 * 2);
}

TEST(CaseSplit, CoverageIsExactPartition) {
  // interior + strips exactly tile the SD (no DP lost, none duplicated).
  dist::tiling t(3, 3, 6, 2);
  std::vector<int> owner{0, 1, 1, 0, 0, 1, 2, 2, 2};
  for (int sd = 0; sd < 9; ++sd) {
    const auto split = dist::compute_case_split(t, sd, owner);
    std::vector<int> cover(36, 0);
    auto mark = [&](const nlh::nonlocal::dp_rect& r) {
      for (int i = r.row_begin; i < r.row_end; ++i)
        for (int j = r.col_begin; j < r.col_end; ++j)
          ++cover[static_cast<std::size_t>(i * 6 + j)];
    };
    if (!split.interior.empty()) mark(split.interior);
    for (const auto& s : split.remote_strips) mark(s);
    for (int k = 0; k < 36; ++k) EXPECT_EQ(cover[static_cast<std::size_t>(k)], 1)
        << "sd=" << sd << " dp=" << k;
  }
}

TEST(CaseSplit, SurroundedSdCanBeAllCase1) {
  dist::tiling t(3, 3, 2, 2);  // sd_size == ghost
  std::vector<int> owner{1, 1, 1, 1, 0, 1, 1, 1, 1};  // center surrounded
  const auto split = dist::compute_case_split(t, 4, owner);
  EXPECT_EQ(split.interior_dps(), 0);
  EXPECT_EQ(split.strip_dps(), 4);
}

TEST(CaseSplit, DiagonalRemoteWidensMargins) {
  dist::tiling t(2, 2, 8, 2);
  std::vector<int> owner{0, 0, 0, 1};  // only the SE SD is foreign
  const auto split = dist::compute_case_split(t, 0, owner);
  // SD 0's southeast neighbor is SD 3 (remote): conservative split marks
  // both the bottom and right strips.
  EXPECT_EQ(split.interior.row_end, 6);
  EXPECT_EQ(split.interior.col_end, 6);
}

// --------------------------------------------------------------- sd_block ----

namespace {

/// Send `from`'s strip toward `d` through the ghost-message wire form into
/// `to`'s collar facing opposite(d).
void exchange(const dist::tiling& t, const dist::sd_block& from, direction d,
              dist::sd_block& to) {
  net::archive_writer w;
  from.pack(t, d, w);
  const auto msg = w.take();
  net::archive_reader r(msg);
  to.unpack(t, dist::opposite(d), r);
  EXPECT_TRUE(r.exhausted());
}

}  // namespace

TEST(SdBlock, PackUnpackRoundTrip) {
  dist::tiling t(1, 2, 4, 2);
  dist::sd_block a(t, 0), b(t, 1);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) a.u()[a.flat(i, j)] = 10.0 * i + j;
  // a sends east; b receives from the west.
  net::archive_writer w;
  a.pack(t, direction::east, w);
  const auto msg = w.take();
  EXPECT_EQ(msg.size(), sizeof(std::uint64_t) + 8 * sizeof(double));  // 4 rows x ghost 2
  net::archive_reader r(msg);
  b.unpack(t, direction::west, r);
  EXPECT_TRUE(r.exhausted());
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 2; ++j)
      EXPECT_DOUBLE_EQ(b.u()[b.flat(i, -2 + j)], 10.0 * i + (2 + j));
}

TEST(SdBlock, FillFromLocalEqualsPackUnpack) {
  dist::tiling t(2, 1, 5, 1);
  dist::sd_block top(t, 0), bottom_a(t, 1), bottom_b(t, 1);
  for (int i = 0; i < 5; ++i)
    for (int j = 0; j < 5; ++j) top.u()[top.flat(i, j)] = i * 5.0 + j;
  exchange(t, top, direction::south, bottom_a);
  bottom_b.fill_from_local(t, direction::north, top);
  for (int j = 0; j < 5; ++j)
    EXPECT_DOUBLE_EQ(bottom_a.u()[bottom_a.flat(-1, j)],
                     bottom_b.u()[bottom_b.flat(-1, j)]);
}

TEST(SdBlock, CornerExchange) {
  dist::tiling t(2, 2, 4, 2);
  dist::sd_block nw(t, 0), se(t, 3);
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) nw.u()[nw.flat(i, j)] = 100.0 + i * 4 + j;
  exchange(t, nw, direction::southeast, se);
  // SE block's NW collar = NW block's bottom-right 2x2 corner.
  EXPECT_DOUBLE_EQ(se.u()[se.flat(-2, -2)], 100.0 + 2 * 4 + 2);
  EXPECT_DOUBLE_EQ(se.u()[se.flat(-1, -1)], 100.0 + 3 * 4 + 3);
}

TEST(SdBlock, SwapFields) {
  dist::tiling t(1, 1, 2, 1);
  dist::sd_block b(t, 0);
  b.u()[b.flat(0, 0)] = 1.0;
  b.u_next()[b.flat(0, 0)] = 2.0;
  b.swap_fields();
  EXPECT_DOUBLE_EQ(b.u()[b.flat(0, 0)], 2.0);
  EXPECT_DOUBLE_EQ(b.u_next()[b.flat(0, 0)], 1.0);
}

TEST(SdBlock, GlobalOrigin) {
  dist::tiling t(3, 3, 7, 1);
  dist::sd_block b(t, 5);  // row 1, col 2
  EXPECT_EQ(b.origin_row(), 7);
  EXPECT_EQ(b.origin_col(), 14);
}
