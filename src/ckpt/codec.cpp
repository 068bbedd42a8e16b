#include "ckpt/codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "support/assert.hpp"

namespace nlh::ckpt {

namespace detail {

std::uint64_t ieee_key(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  // Negatives: flip every bit so more-negative doubles get smaller keys.
  // Non-negatives: set the sign bit so they land above every negative.
  return (b >> 63) ? ~b : (b | 0x8000000000000000ull);
}

double ieee_unkey(std::uint64_t k) {
  const std::uint64_t b = (k & 0x8000000000000000ull) ? (k ^ 0x8000000000000000ull) : ~k;
  double v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

std::uint64_t zigzag(std::uint64_t delta) {
  // Interpret the wrapping difference as signed and fold the sign into
  // bit 0, so small |delta| in either direction packs into few bytes.
  const auto d = static_cast<std::int64_t>(delta);
  return (static_cast<std::uint64_t>(d) << 1) ^ static_cast<std::uint64_t>(d >> 63);
}

std::uint64_t unzigzag(std::uint64_t z) {
  return (z >> 1) ^ (~(z & 1) + 1);
}

void write_varint(net::archive_writer& w, std::uint64_t v) {
  while (v >= 0x80) {
    w.write_byte(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  w.write_byte(static_cast<std::uint8_t>(v));
}

std::uint64_t read_varint(net::archive_reader& r) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 70; shift += 7) {
    const std::uint8_t b = r.read_byte();
    NLH_ASSERT_MSG(shift < 64, "ckpt: varint too long");
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if (!(b & 0x80)) return v;
  }
  NLH_ASSERT_MSG(false, "ckpt: varint too long");
  return 0;
}

namespace {

/// Decompose a finite double into odd-significand form v = q * 2^s
/// (q == 0 for +0.0). False for non-finite values and for -0.0, which has
/// no lattice representative distinct from +0.0.
bool decompose(double v, std::int64_t& q, int& s) {
  if (!std::isfinite(v)) return false;
  if (v == 0.0) {
    if (std::signbit(v)) return false;
    q = 0;
    s = std::numeric_limits<int>::max();  // neutral under min()
    return true;
  }
  int e;
  const double m = std::frexp(v, &e);  // v = m * 2^e, 0.5 <= |m| < 1
  auto mant = static_cast<std::int64_t>(std::ldexp(m, 53));  // exact: 53-bit int
  s = e - 53;
  while ((mant & 1) == 0) {
    mant >>= 1;
    ++s;
  }
  q = mant;
  return true;
}

}  // namespace

bool fixed_point_lattice(const double* vals, std::size_t n,
                         std::vector<std::int64_t>& q, int& scale) {
  q.resize(n);
  std::vector<int> per_scale(n);
  scale = std::numeric_limits<int>::max();
  for (std::size_t i = 0; i < n; ++i) {
    if (!decompose(vals[i], q[i], per_scale[i])) return false;
    scale = std::min(scale, per_scale[i]);
  }
  if (scale == std::numeric_limits<int>::max()) scale = 0;  // all-zero frame
  for (std::size_t i = 0; i < n; ++i) {
    if (q[i] == 0) continue;
    const int shift = per_scale[i] - scale;
    // Keep |q| < 2^62 so key deltas never overflow-surprise and the
    // decoder's (double)q stays exact (the shift only appends zero bits).
    if (shift >= 62) return false;
    const std::int64_t lim = std::int64_t{1} << (62 - shift);
    if (q[i] >= lim || q[i] <= -lim) return false;
    q[i] *= std::int64_t{1} << shift;  // q may be negative: no left shift
  }
  return true;
}

}  // namespace detail

namespace {

using detail::ieee_key;
using detail::ieee_unkey;
using detail::read_varint;
using detail::unzigzag;
using detail::write_varint;
using detail::zigzag;

class raw_codec_impl final : public codec {
 public:
  std::string name() const override { return "raw"; }

  frame_stats encode(const double* vals, std::size_t n, const double* /*prev*/,
                     net::archive_writer& w) const override {
    const auto before = w.size();
    w.write_byte('r');
    w.write_raw(vals, n * sizeof(double));
    return {n * sizeof(double), w.size() - before, 'r'};
  }

  void decode(net::archive_reader& r, double* out, std::size_t n,
              const double* /*prev*/) const override {
    const auto mode = r.read_byte();
    NLH_ASSERT_MSG(mode == 'r', "ckpt: raw codec frame expected");
    r.read_raw(out, n * sizeof(double));
  }
};

/// One encoded group of the delta stream: ctrl = (count << 1) | zero_flag.
/// zero_flag set → `count` zero deltas and nothing else; clear → `count`
/// literal zigzag varints follow.
constexpr std::size_t kMinZeroRun = 2;  // below this a literal is no larger

class delta_codec_impl final : public codec {
 public:
  std::string name() const override { return "delta"; }

  frame_stats encode(const double* vals, std::size_t n, const double* prev,
                     net::archive_writer& w) const override {
    const auto before = w.size();

    // Pick the key space: the fixed-point lattice when the frame (and the
    // baseline, which the decoder must be able to quantize with the same
    // scale) sits on one exactly, else order-preserving IEEE bit keys.
    std::vector<std::int64_t> q;
    int scale = 0;
    bool fixed = detail::fixed_point_lattice(vals, n, q, scale);
    std::vector<std::int64_t> qprev;
    if (fixed && prev) {
      int pscale = 0;
      std::vector<std::int64_t> tmp;
      fixed = detail::fixed_point_lattice(prev, n, tmp, pscale) &&
              merge_lattices(q, scale, tmp, pscale);
      if (fixed) qprev = std::move(tmp);
    }

    std::vector<std::uint64_t> keys(n);
    if (fixed) {
      w.write_byte('f');
      write_varint(w, zigzag(static_cast<std::uint64_t>(
                          static_cast<std::int64_t>(scale))));
      for (std::size_t i = 0; i < n; ++i) keys[i] = static_cast<std::uint64_t>(q[i]);
    } else {
      w.write_byte('b');
      for (std::size_t i = 0; i < n; ++i) keys[i] = ieee_key(vals[i]);
    }

    // Predict: baseline keys for incremental frames, the previous element
    // (seeded with key-of-zero so leading quiescent stretches run-length
    // away) for self-contained ones. All arithmetic wraps mod 2^64.
    std::vector<std::uint64_t> z(n);
    std::uint64_t pred = fixed ? 0 : ieee_key(0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t p =
          prev ? (fixed ? static_cast<std::uint64_t>(qprev[i]) : ieee_key(prev[i]))
               : pred;
      z[i] = zigzag(keys[i] - p);
      pred = keys[i];
    }

    // Group emission: zero runs of length >= kMinZeroRun become a single
    // ctrl varint; everything between them a literal group.
    std::size_t lit_begin = 0;
    std::size_t i = 0;
    while (i < n) {
      if (z[i] == 0) {
        std::size_t j = i;
        while (j < n && z[j] == 0) ++j;
        if (j - i >= kMinZeroRun) {
          flush_literals(w, z, lit_begin, i);
          write_varint(w, (static_cast<std::uint64_t>(j - i) << 1) | 1);
          lit_begin = j;
        }
        i = j;
      } else {
        ++i;
      }
    }
    flush_literals(w, z, lit_begin, n);

    return {n * sizeof(double), w.size() - before, fixed ? 'f' : 'b'};
  }

  void decode(net::archive_reader& r, double* out, std::size_t n,
              const double* prev) const override {
    const auto mode = r.read_byte();
    NLH_ASSERT_MSG(mode == 'f' || mode == 'b', "ckpt: delta codec frame expected");
    const bool fixed = mode == 'f';
    int scale = 0;
    if (fixed)
      scale = static_cast<int>(
          static_cast<std::int64_t>(unzigzag(read_varint(r))));

    std::uint64_t pred = fixed ? 0 : ieee_key(0.0);
    std::size_t i = 0;
    while (i < n) {
      const std::uint64_t ctrl = read_varint(r);
      std::uint64_t count = ctrl >> 1;
      NLH_ASSERT_MSG(count >= 1 && count <= n - i, "ckpt: frame group overruns");
      const bool zeros = ctrl & 1;
      for (; count; --count, ++i) {
        const std::uint64_t delta = zeros ? 0 : unzigzag(read_varint(r));
        const std::uint64_t p =
            prev ? (fixed ? quantize(prev[i], scale) : ieee_key(prev[i])) : pred;
        const std::uint64_t key = p + delta;
        out[i] = fixed ? std::ldexp(static_cast<double>(
                                        static_cast<std::int64_t>(key)),
                                    scale)
                       : ieee_unkey(key);
        pred = key;
      }
    }
  }

 private:
  /// Rescale both integer arrays onto the finer of the two lattices; false
  /// when the rescale would overflow the 2^62 budget.
  static bool merge_lattices(std::vector<std::int64_t>& a, int& as,
                             std::vector<std::int64_t>& b, int bs) {
    const int common = std::min(as, bs);
    if (!rescale(a, as - common) || !rescale(b, bs - common)) return false;
    as = common;
    return true;
  }

  static bool rescale(std::vector<std::int64_t>& q, int shift) {
    if (shift == 0) return true;
    if (shift >= 62) return std::all_of(q.begin(), q.end(),
                                        [](std::int64_t v) { return v == 0; });
    const std::int64_t lim = std::int64_t{1} << (62 - shift);
    for (auto& v : q) {
      if (v >= lim || v <= -lim) return false;
      v *= std::int64_t{1} << shift;  // v may be negative: no left shift
    }
    return true;
  }

  /// Baseline value -> lattice coordinate; exact by the encoder's merged
  /// lattice check. The scale is read from the frame, so a frame whose
  /// scale puts the baseline off its lattice or past the 2^62 budget aborts
  /// here rather than cast an out-of-range double.
  static std::uint64_t quantize(double v, int scale) {
    const double q = std::ldexp(v, -scale);
    NLH_ASSERT_MSG(std::abs(q) < 0x1p62 &&
                       static_cast<double>(static_cast<std::int64_t>(q)) == q,
                   "ckpt: delta frame scale does not fit its baseline");
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(q));
  }

  static void flush_literals(net::archive_writer& w,
                             const std::vector<std::uint64_t>& z,
                             std::size_t begin, std::size_t end) {
    if (begin == end) return;
    write_varint(w, static_cast<std::uint64_t>(end - begin) << 1);
    for (std::size_t k = begin; k < end; ++k) write_varint(w, z[k]);
  }
};

}  // namespace

const codec& raw_codec() {
  static const raw_codec_impl c;
  return c;
}

const codec& delta_codec() {
  static const delta_codec_impl c;
  return c;
}

const codec* find_codec(const std::string& name) {
  if (name == "raw") return &raw_codec();
  if (name == "delta") return &delta_codec();
  return nullptr;
}

std::vector<std::string> codec_names() { return {"delta", "raw"}; }

}  // namespace nlh::ckpt
