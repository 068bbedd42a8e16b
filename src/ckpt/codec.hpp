#pragma once
///
/// \file codec.hpp
/// \brief The lossless frame codec of the `src/ckpt/` checkpoint/hibernation
/// subsystem (docs/checkpoint.md).
///
/// A *frame* is one encoded array of doubles (an SD interior, a whole
/// padded field). Encoding is **bitwise lossless**: decode_frame(encode_frame(v))
/// reproduces each double bit for bit, including signed zeros, denormals
/// and NaN payloads — the property the hibernate→restore→run ==
/// uninterrupted-run guarantee rests on (tests/ckpt_test.cpp).
///
/// Values are mapped to 64-bit integer *keys* — exact fixed-point lattice
/// coordinates when the whole frame sits on one (q * 2^s with q in int64),
/// else the order-preserving IEEE bit-cast key — then predicted from the
/// previous element, zigzag-mapped and LEB128-varint packed, with a
/// run-length fast path that collapses runs of zero deltas (constant
/// stretches) to a couple of bytes. The quiescent majority of a localized
/// workload — exactly-zero far field, SDs the activity front has not
/// reached — is what makes checkpoints 3-10x smaller than the raw doubles
/// on pulse-type scenarios (bench/micro_checkpoint); dense full-entropy
/// fields (crack, manufactured) stay near 1x, which the bench reports but
/// does not gate.
///

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/serializer.hpp"

namespace nlh::ckpt {

/// Append one self-contained frame of `vals[0..n)` to `w`. The frame leads
/// with its mode byte: 'f' (fixed-point lattice) or 'b' (IEEE bit-cast keys).
void encode_frame(const double* vals, std::size_t n, net::archive_writer& w);

/// Decode exactly one frame produced by encode_frame with the same `n` into
/// `out[0..n)`. Aborts on a malformed frame: an unknown mode byte, a group
/// of count 0 or past `n`, an overlong varint, or too few bytes.
void decode_frame(net::archive_reader& r, double* out, std::size_t n);

// --------------------------------------------------------------- details --
// Exposed for direct property testing (tests/ckpt_test.cpp) and reuse; not
// part of the stable surface.
namespace detail {

/// Order-preserving bijection double bits <-> uint64: negative values map
/// below positives, so keys of numerically close same-sign doubles are
/// numerically close integers. Total (works on every bit pattern).
std::uint64_t ieee_key(double v);
double ieee_unkey(std::uint64_t k);

/// Zigzag mapping of a wrapping signed delta into the small-magnitude
/// corner of uint64.
std::uint64_t zigzag(std::uint64_t delta);
std::uint64_t unzigzag(std::uint64_t z);

/// LEB128 base-128 varint (1..10 bytes).
void write_varint(net::archive_writer& w, std::uint64_t v);
std::uint64_t read_varint(net::archive_reader& r);

/// True when every value of `vals` is exactly q * 2^scale with q in int64
/// (and |q| < 2^62); fills `q` and `scale` on success — the codec's
/// fixed-point lattice fast path.
bool fixed_point_lattice(const double* vals, std::size_t n,
                         std::vector<std::int64_t>& q, int& scale);

}  // namespace detail

}  // namespace nlh::ckpt
