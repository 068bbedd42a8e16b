#pragma once
///
/// \file codec.hpp
/// \brief Lossless frame codecs for per-SD field snapshots — the encoding
/// layer of the `src/ckpt/` checkpoint/hibernation subsystem
/// (docs/checkpoint.md).
///
/// A *frame* is one encoded array of doubles (an SD interior, a whole
/// padded field, ...). Every codec is **bitwise lossless**: decode(encode(v))
/// reproduces each double bit for bit, including signed zeros, denormals
/// and NaN payloads — the property the hibernate→restore→run ==
/// uninterrupted-run guarantee rests on (tests/ckpt_test.cpp).
///
/// `raw` stores the IEEE-754 bytes verbatim (the ablation baseline and the
/// PR-7-era checkpoint format, one level down). `delta` is the production
/// codec: values are mapped to 64-bit integer *keys* — exact fixed-point
/// lattice coordinates when the whole frame sits on one (q * 2^s with q in
/// int64), else the order-preserving IEEE bit-cast key — then
/// delta-predicted (against the caller's baseline frame when given: the
/// incremental-checkpoint path; against the previous element otherwise),
/// zigzag-mapped and LEB128-varint packed, with a run-length fast path
/// that collapses runs of zero deltas (constant stretches of a full frame,
/// untouched stretches of an incremental one) to a couple of bytes. The
/// quiescent majority of a localized workload — exactly-zero far field,
/// SDs the activity front has not reached — is what makes compressed
/// checkpoints 3-10x smaller than raw on pulse-type scenarios
/// (bench/micro_checkpoint); dense full-entropy fields (crack,
/// manufactured) stay near 1x, which the bench reports but does not gate.
///

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/serializer.hpp"

namespace nlh::ckpt {

/// Per-frame accounting returned by encode() — the source of the
/// `ckpt/bytes_{raw,encoded}` observables.
struct frame_stats {
  std::uint64_t raw_bytes = 0;      ///< n * sizeof(double)
  std::uint64_t encoded_bytes = 0;  ///< bytes appended to the writer
  /// Codec-specific mode tag ('r' raw; 'f' fixed-point lattice, 'b' IEEE
  /// bit-cast keys for the delta codec).
  char mode = '?';
};

/// Abstract frame codec. Implementations are stateless and thread-safe;
/// the registry hands out process-lifetime singletons.
class codec {
 public:
  virtual ~codec() = default;

  /// Registry key ("raw", "delta").
  virtual std::string name() const = 0;

  /// Append one encoded frame of `vals[0..n)` to `w`. `prev` is either
  /// null (self-contained frame) or `n` baseline doubles the decoder will
  /// present identically — the incremental-checkpoint contract.
  virtual frame_stats encode(const double* vals, std::size_t n,
                             const double* prev, net::archive_writer& w) const = 0;

  /// Decode exactly one frame produced by encode() with the same (n, prev
  /// nullness) into `out[0..n)`; `prev` must hold the encode-side baseline
  /// values when the frame was encoded against one.
  virtual void decode(net::archive_reader& r, double* out, std::size_t n,
                      const double* prev) const = 0;
};

/// Knobs for the dist_solver checkpoint path (`dist_config::checkpoint`).
struct checkpoint_options {
  /// Registry key of the frame codec ("delta", "raw").
  std::string codec = "delta";
};

/// Singletons (stateless, safe to share across threads).
const codec& raw_codec();
const codec& delta_codec();

/// Registry lookup; nullptr for unknown names.
const codec* find_codec(const std::string& name);
/// Sorted registry keys ({"delta", "raw"}).
std::vector<std::string> codec_names();

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
/// (and |q| < 2^62); fills `q` and `scale` on success — the delta codec's
/// fixed-point lattice fast path.
bool fixed_point_lattice(const double* vals, std::size_t n,
                         std::vector<std::int64_t>& q, int& scale);

}  // namespace detail

}  // namespace nlh::ckpt
