#pragma once
///
/// \file influence.hpp
/// \brief Influence function J(r), r in [0,1], and the model constant c
/// relating nonlocal diffusion to the classical conductivity k (paper eq. 2).
///

namespace nlh::nonlocal {

/// Influence function families from the nonlocal diffusion literature.
/// The paper uses `constant` (J = 1); the others exercise the same code
/// paths with non-trivial weights.
enum class influence_kind {
  constant,  ///< J(r) = 1
  linear,    ///< J(r) = 1 - r
  gaussian,  ///< J(r) = exp(-4 r^2)
};

class influence {
 public:
  explicit influence(influence_kind kind = influence_kind::constant) : kind_(kind) {}

  influence_kind kind() const { return kind_; }

  /// J(r) for normalized distance r = |y-x|/epsilon in [0, 1].
  double operator()(double r) const;

  /// i-th moment M_i = \int_0^1 J(r) r^i dr (analytic for constant/linear,
  /// Simpson quadrature for gaussian).
  double moment(int i) const;

  /// Model constant c for conductivity k and horizon epsilon in two
  /// dimensions, per paper eq. (2): c = 2k/(pi eps^4 M3).
  double scaling_constant(double conductivity, double epsilon) const;

 private:
  influence_kind kind_;
};

}  // namespace nlh::nonlocal
