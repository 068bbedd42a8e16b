#pragma once
///
/// \file backend.hpp
/// \brief Kernel backend enum and process-wide backend selection for the
/// nonlocal operator hot loop.
///
/// Four implementations sit behind the single apply_nonlocal_operator_raw
/// entry point:
///  - `scalar`  — the original entry-list gather loop (reference baseline);
///  - `row_run` — unit-stride row-run loops the compiler auto-vectorizes;
///  - `simd`    — explicit AVX2/SSE2 intrinsics (falls back to row_run when
///                the binary or the CPU lacks the instructions);
///  - `avx512`  — explicit AVX-512F intrinsics in their own TU (falls back
///                to `simd`, then `row_run`, along the same runtime gate).
///
/// The process *default* is resolved once per process: the
/// CMake-configured NLH_KERNEL_DEFAULT_BACKEND_NAME, else the best
/// available backend. The default is only a fallback: each solver owns a
/// stencil_plan that may pin its own backend (per-session selection via
/// api::session_options::kernel_backend), so sessions with different
/// backends coexist in one process. Serial and distributed runs keep
/// their bitwise-agreement property as long as they share a backend.
///

#include <optional>
#include <string>

namespace nlh::nonlocal {

/// Selectable implementations of the nonlocal operator inner loop.
enum class kernel_backend {
  scalar,   ///< entry-list gather loop (the measured baseline)
  row_run,  ///< compiled runs, auto-vectorizable unit-stride FMAs
  simd,     ///< explicit AVX2/SSE2 path (row_run fallback if unavailable)
  avx512,   ///< explicit AVX-512F path (simd/row_run fallback if unavailable)
};

/// Lower-case backend name ("scalar", "row_run", "simd", "avx512").
const char* kernel_backend_name(kernel_backend b);

/// Parse a backend name; nullopt on anything unrecognized.
std::optional<kernel_backend> parse_kernel_backend(const std::string& name);

/// True when the simd backend would actually run intrinsics: the simd
/// translation unit was compiled with vector instructions AND (for AVX2)
/// the running CPU supports them.
bool kernel_simd_available();

/// Instruction level baked into the simd translation unit:
/// 0 = portable fallback, 1 = SSE2, 2 = AVX2+FMA.
int kernel_simd_compiled_level();

/// True when the avx512 backend would actually run AVX-512 intrinsics: the
/// avx512 translation unit was compiled with them (NLH_ENABLE_AVX512) AND
/// the running CPU reports avx512f.
bool kernel_avx512_available();

/// Instruction level baked into the avx512 translation unit:
/// 0 = forwarding fallback, 1 = AVX-512F.
int kernel_avx512_compiled_level();

/// Process-wide default backend — what an *unpinned* stencil_plan resolves
/// to at dispatch time (see stencil_plan::backend()).
kernel_backend kernel_default_backend();

/// Override the process-wide default (e.g. from bench/test CLI). Requests
/// for `simd` when it is unavailable are honored at dispatch time by the
/// row_run fallback, so the setting is always safe.
void set_kernel_default_backend(kernel_backend b);

}  // namespace nlh::nonlocal
