#pragma once
///
/// \file sd_block.hpp
/// \brief Per-SD field storage: the sd_size^2 interior DPs surrounded by a
/// ghost collar, plus strip pack/unpack for the exchange path.
///
/// Each block holds two padded fields (u and u_next) so the forward-Euler
/// update never aliases its inputs; swap_fields flips them after a step.
/// pack/unpack serialize send/recv strips row-major as raw doubles — the
/// payload a cluster run would put on the wire — while fill_from_local is
/// the zero-copy shortcut for neighbors on the same locality. All three
/// copy whole rows, each bounds-checked through row_flat().
///

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "dist/tiling.hpp"
#include "net/serializer.hpp"
#include "support/assert.hpp"

namespace nlh::dist {

class sd_block {
 public:
  sd_block(const tiling& t, int sd)
      : sd_(sd),
        size_(t.sd_size()),
        ghost_(t.ghost()),
        origin_row_(t.origin_row(sd)),
        origin_col_(t.origin_col(sd)),
        stride_(t.sd_size() + 2 * t.ghost()),
        u_(static_cast<std::size_t>(stride_) * stride_, 0.0),
        u_next_(static_cast<std::size_t>(stride_) * stride_, 0.0) {}

  int sd() const { return sd_; }
  int size() const { return size_; }
  int ghost() const { return ghost_; }
  int stride() const { return stride_; }

  /// Global DP coordinates of local (0, 0).
  int origin_row() const { return origin_row_; }
  int origin_col() const { return origin_col_; }

  /// Flat index of local DP (i, j); collar cells use i or j in
  /// [-ghost, size + ghost).
  std::size_t flat(int i, int j) const {
    NLH_ASSERT(i >= -ghost_ && i < size_ + ghost_);
    NLH_ASSERT(j >= -ghost_ && j < size_ + ghost_);
    return static_cast<std::size_t>(i + ghost_) * static_cast<std::size_t>(stride_) +
           static_cast<std::size_t>(j + ghost_);
  }

  /// Flat index of (i, j0); asserts the row segment [j0, j1) at both ends.
  std::size_t row_flat(int i, int j0, int j1) const {
    flat(i, j1 - 1);
    return flat(i, j0);
  }

  std::vector<double>& u() { return u_; }
  const std::vector<double>& u() const { return u_; }
  std::vector<double>& u_next() { return u_next_; }
  const std::vector<double>& u_next() const { return u_next_; }

  void swap_fields() { std::swap(u_, u_next_); }

  /// Row-major copy of the size^2 interior DPs — the migration and
  /// checkpoint payload.
  std::vector<double> interior() const {
    std::vector<double> vals;
    vals.reserve(static_cast<std::size_t>(size_) * size_);
    for (int i = 0; i < size_; ++i)
      for (int j = 0; j < size_; ++j) vals.push_back(u_[flat(i, j)]);
    return vals;
  }

  void set_interior(const std::vector<double>& vals) {
    NLH_ASSERT_MSG(vals.size() == static_cast<std::size_t>(size_) * size_,
                   "sd_block: interior payload size mismatch");
    std::size_t k = 0;
    for (int i = 0; i < size_; ++i)
      for (int j = 0; j < size_; ++j) u_[flat(i, j)] = vals[k++];
  }

  /// Append the strip sent toward `d` to a ghost message: its DP count,
  /// then its rows (the wire form of a std::vector<double>).
  void pack(const tiling& t, direction d, net::archive_writer& w) const {
    const auto r = t.send_rect(d);
    w.write(static_cast<std::uint64_t>(r.area()));
    for (int i = r.row_begin; i < r.row_end; ++i)
      w.write_raw(u_.data() + row_flat(i, r.col_begin, r.col_end),
                  static_cast<std::size_t>(r.cols()) * sizeof(double));
  }

  /// Read the next strip of a ghost message into the collar facing `d`.
  /// Aborts when its DP count differs from the collar's or the message
  /// ends early.
  void unpack(const tiling& t, direction d, net::archive_reader& r) {
    const auto rect = t.recv_rect(d);
    NLH_ASSERT_MSG(r.read<std::uint64_t>() == static_cast<std::uint64_t>(rect.area()),
                   "sd_block: ghost strip size does not match the collar rect");
    for (int i = rect.row_begin; i < rect.row_end; ++i)
      r.read_raw(u_.data() + row_flat(i, rect.col_begin, rect.col_end),
                 static_cast<std::size_t>(rect.cols()) * sizeof(double));
  }

  /// Fill the collar facing direction `d` straight from a same-locality
  /// neighbor block (equivalent to packing nbr's strip toward opposite(d)
  /// and unpacking it here).
  void fill_from_local(const tiling& t, direction d, const sd_block& nbr) {
    const auto dst = t.recv_rect(d);
    const auto src = t.send_rect(opposite(d));
    NLH_ASSERT(dst.rows() == src.rows() && dst.cols() == src.cols());
    for (int i = 0; i < dst.rows(); ++i)
      std::copy_n(nbr.u_.data() + nbr.row_flat(src.row_begin + i, src.col_begin,
                                               src.col_end),
                  dst.cols(),
                  u_.data() + row_flat(dst.row_begin + i, dst.col_begin, dst.col_end));
  }

 private:
  int sd_;
  int size_;
  int ghost_;
  int origin_row_;
  int origin_col_;
  int stride_;
  std::vector<double> u_;
  std::vector<double> u_next_;
};

}  // namespace nlh::dist
