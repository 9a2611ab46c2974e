// Compile-time dimensional safety: Quantity<Dim> strong types.
//
// DenseVLC's pipeline is unit-laden physics — Lambertian gains, swing
// currents in amperes, communication power budgets in watts, illuminance
// in lux, throughput in bit/s. Sec. 3's P_C,tot = sum r * (Isw/2)^2 mixes
// A, ohm and W in one line; a transposed argument used to be a runtime
// convention violation at best. This header turns unit errors into
// compile errors:
//
//   Watts p = Amperes{0.45} * Amperes{0.45} * Ohms{0.2188};  // ok
//   Watts q = Amperes{0.45} * Ohms{0.2188};                  // error: that's Volts
//   double d = p;                                            // error: use .value()
//
// Dimensions are an integer exponent pack over six base axes chosen for
// this codebase (SI length/mass/time/current, plus luminous flux and data
// bits as independent axes so lux and bit/s get their own algebra):
//
//   axis      unit     carried by
//   length    m        Meters, SquareMeters, Lux (m^-2 factor)
//   mass      kg       Watts, Joules, Volts, Ohms (derived SI)
//   time      s        Seconds, Hertz, BitsPerSecond, Watts, ...
//   current   A        Amperes, SquareAmperes, Volts, Ohms
//   luminous  lm       Lumens, Lux, LumensPerWatt
//   data      bit      Bits, BitsPerSecond
//
// Products and quotients derive dimensions automatically (A * ohm = V,
// A^2 * ohm = W, lx * m^2 = lm, bit/s / Hz = bit); a fully cancelled
// dimension collapses to plain double, so ratios read naturally. The
// wrapper holds a single double with every operation constexpr-inline.
//
// The only escape hatch is .value(); bulk storage (std::vector<double>
// matrices) stays raw by design and re-enters the typed world at the
// scalar API boundary.
#pragma once

#include <cmath>
#include <type_traits>

namespace densevlc {

/// Exponent pack of one dimension: meters^L kg^M s^T A^I lm^J bit^D.
template <int L, int M, int T, int I, int J, int D>
struct Dim {
  static constexpr int length = L;
  static constexpr int mass = M;
  static constexpr int time = T;
  static constexpr int current = I;
  static constexpr int luminous = J;
  static constexpr int data = D;
};

using Dimensionless = Dim<0, 0, 0, 0, 0, 0>;

template <class A, class B>
using DimMultiply = Dim<A::length + B::length, A::mass + B::mass,
                        A::time + B::time, A::current + B::current,
                        A::luminous + B::luminous, A::data + B::data>;

template <class A, class B>
using DimDivide = Dim<A::length - B::length, A::mass - B::mass,
                      A::time - B::time, A::current - B::current,
                      A::luminous - B::luminous, A::data - B::data>;

template <class A>
using DimSqrt = Dim<A::length / 2, A::mass / 2, A::time / 2, A::current / 2,
                    A::luminous / 2, A::data / 2>;

template <class A>
inline constexpr bool kDimIsDimensionless =
    A::length == 0 && A::mass == 0 && A::time == 0 && A::current == 0 &&
    A::luminous == 0 && A::data == 0;

template <class A>
inline constexpr bool kDimHasEvenExponents =
    A::length % 2 == 0 && A::mass % 2 == 0 && A::time % 2 == 0 &&
    A::current % 2 == 0 && A::luminous % 2 == 0 && A::data % 2 == 0;

/// A double tagged with a dimension. Construction from raw double is
/// explicit; reading the raw value is explicit (.value()). Same-dimension
/// sums and comparisons work directly; products/quotients derive the
/// result dimension at compile time.
template <class DimT>
class Quantity {
 public:
  using dimension = DimT;

  constexpr Quantity() = default;
  constexpr explicit Quantity(double v) : v_{v} {}

  /// The raw magnitude in coherent SI-style base units (the only way out
  /// of the typed world; grep-able by the invariant linter).
  [[nodiscard]] constexpr double value() const { return v_; }

  constexpr Quantity operator-() const { return Quantity{-v_}; }
  constexpr Quantity operator+() const { return *this; }

  constexpr Quantity& operator+=(Quantity o) { v_ += o.v_; return *this; }
  constexpr Quantity& operator-=(Quantity o) { v_ -= o.v_; return *this; }
  constexpr Quantity& operator*=(double s) { v_ *= s; return *this; }
  constexpr Quantity& operator/=(double s) { v_ /= s; return *this; }

  friend constexpr Quantity operator+(Quantity a, Quantity b) {
    return Quantity{a.v_ + b.v_};
  }
  friend constexpr Quantity operator-(Quantity a, Quantity b) {
    return Quantity{a.v_ - b.v_};
  }
  friend constexpr Quantity operator*(Quantity a, double s) {
    return Quantity{a.v_ * s};
  }
  friend constexpr Quantity operator*(double s, Quantity a) {
    return Quantity{s * a.v_};
  }
  friend constexpr Quantity operator/(Quantity a, double s) {
    return Quantity{a.v_ / s};
  }

  friend constexpr bool operator==(Quantity a, Quantity b) {
    return a.v_ == b.v_;
  }
  friend constexpr bool operator!=(Quantity a, Quantity b) {
    return a.v_ != b.v_;
  }
  friend constexpr bool operator<(Quantity a, Quantity b) {
    return a.v_ < b.v_;
  }
  friend constexpr bool operator<=(Quantity a, Quantity b) {
    return a.v_ <= b.v_;
  }
  friend constexpr bool operator>(Quantity a, Quantity b) {
    return a.v_ > b.v_;
  }
  friend constexpr bool operator>=(Quantity a, Quantity b) {
    return a.v_ >= b.v_;
  }

 private:
  double v_ = 0.0;
};

namespace detail {

// A product/quotient whose dimension fully cancels collapses to double so
// ratios (efficiencies, gains, relative errors) read as plain numbers.
template <class DimT>
constexpr auto make_quantity(double v) {
  if constexpr (kDimIsDimensionless<DimT>) {
    return v;
  } else {
    return Quantity<DimT>{v};
  }
}

}  // namespace detail

template <class DA, class DB>
constexpr auto operator*(Quantity<DA> a, Quantity<DB> b) {
  return detail::make_quantity<DimMultiply<DA, DB>>(a.value() * b.value());
}

template <class DA, class DB>
constexpr auto operator/(Quantity<DA> a, Quantity<DB> b) {
  return detail::make_quantity<DimDivide<DA, DB>>(a.value() / b.value());
}

template <class DA>
constexpr auto operator/(double s, Quantity<DA> a) {
  return detail::make_quantity<DimDivide<Dimensionless, DA>>(s / a.value());
}

/// sqrt of a quantity with even exponents (e.g. sqrt(A^2) = A — how the
/// front-end turns integrated noise PSD into a current sigma).
template <class DimT>
Quantity<DimSqrt<DimT>> sqrt(Quantity<DimT> q) {
  static_assert(kDimHasEvenExponents<DimT>,
                "sqrt of a quantity whose dimension has odd exponents is "
                "not representable");
  return Quantity<DimSqrt<DimT>>{std::sqrt(q.value())};
}

/// |q| with the same dimension.
template <class DimT>
Quantity<DimT> abs(Quantity<DimT> q) {
  return Quantity<DimT>{std::fabs(q.value())};
}

// ---------------------------------------------------------------------------
// Typed aliases for the quantities DenseVLC actually moves around.
// ---------------------------------------------------------------------------

using Meters = Quantity<Dim<1, 0, 0, 0, 0, 0>>;
using SquareMeters = Quantity<Dim<2, 0, 0, 0, 0, 0>>;
using Seconds = Quantity<Dim<0, 0, 1, 0, 0, 0>>;
using Hertz = Quantity<Dim<0, 0, -1, 0, 0, 0>>;
using MetersPerSecond = Quantity<Dim<1, 0, -1, 0, 0, 0>>;
using Amperes = Quantity<Dim<0, 0, 0, 1, 0, 0>>;
using SquareAmperes = Quantity<Dim<0, 0, 0, 2, 0, 0>>;
using Watts = Quantity<Dim<2, 1, -3, 0, 0, 0>>;
using Joules = Quantity<Dim<2, 1, -2, 0, 0, 0>>;
using Volts = Quantity<Dim<2, 1, -3, -1, 0, 0>>;
using Ohms = Quantity<Dim<2, 1, -3, -2, 0, 0>>;
using Lumens = Quantity<Dim<0, 0, 0, 0, 1, 0>>;
using Lux = Quantity<Dim<-2, 0, 0, 0, 1, 0>>;
using LumensPerWatt = Quantity<Dim<-2, -1, 3, 0, 1, 0>>;
using AmperesPerWatt = Quantity<Dim<-2, -1, 3, 1, 0, 0>>;
using Bits = Quantity<Dim<0, 0, 0, 0, 0, 1>>;
using BitsPerSecond = Quantity<Dim<0, 0, -1, 0, 0, 1>>;
/// Single-sided current-noise power spectral density N0 [A^2/Hz] = A^2 s.
using AmpsSquaredPerHertz = Quantity<Dim<0, 0, 1, 2, 0, 0>>;

// Consistency checks of the derivation algebra (paper Sec. 3.4 identities).
static_assert(std::is_same_v<decltype(Amperes{} * Ohms{}), Volts>,
              "A * ohm must be V");
static_assert(std::is_same_v<decltype(Amperes{} * Amperes{} * Ohms{}), Watts>,
              "A^2 * ohm must be W (Eq. 10: P_C = r * (Isw/2)^2)");
static_assert(std::is_same_v<decltype(Volts{} * Amperes{}), Watts>,
              "V * A must be W");
static_assert(std::is_same_v<decltype(Watts{} * Seconds{}), Joules>,
              "W * s must be J");
static_assert(std::is_same_v<decltype(Lux{} * SquareMeters{}), Lumens>,
              "lx * m^2 must be lm");
static_assert(std::is_same_v<decltype(Watts{} * LumensPerWatt{}), Lumens>,
              "W * (lm/W) must be lm");
static_assert(std::is_same_v<decltype(Bits{} / Seconds{}), BitsPerSecond>,
              "bit / s must be bit/s");
static_assert(std::is_same_v<decltype(AmpsSquaredPerHertz{} * Hertz{}),
                             SquareAmperes>,
              "N0 * bandwidth must be A^2");
static_assert(std::is_same_v<decltype(Watts{} / Watts{}), double>,
              "fully cancelled dimensions collapse to double");

// ---------------------------------------------------------------------------
// User-defined literals: 36.0_mA, 2.0_W, 1.0_MHz, 500.0_lx, ...
// ---------------------------------------------------------------------------

inline namespace literals {

constexpr Meters operator""_m(long double v) { return Meters{static_cast<double>(v)}; }
constexpr Meters operator""_m(unsigned long long v) { return Meters{static_cast<double>(v)}; }
constexpr Meters operator""_mm(long double v) { return Meters{static_cast<double>(v) * 1e-3}; }
constexpr Meters operator""_cm(long double v) { return Meters{static_cast<double>(v) * 1e-2}; }
constexpr SquareMeters operator""_m2(long double v) { return SquareMeters{static_cast<double>(v)}; }
constexpr SquareMeters operator""_mm2(long double v) { return SquareMeters{static_cast<double>(v) * 1e-6}; }
constexpr Seconds operator""_s(long double v) { return Seconds{static_cast<double>(v)}; }
constexpr Seconds operator""_s(unsigned long long v) { return Seconds{static_cast<double>(v)}; }
constexpr Seconds operator""_ms(long double v) { return Seconds{static_cast<double>(v) * 1e-3}; }
constexpr Seconds operator""_us(long double v) { return Seconds{static_cast<double>(v) * 1e-6}; }
constexpr Seconds operator""_ns(long double v) { return Seconds{static_cast<double>(v) * 1e-9}; }
constexpr Hertz operator""_Hz(long double v) { return Hertz{static_cast<double>(v)}; }
constexpr Hertz operator""_Hz(unsigned long long v) { return Hertz{static_cast<double>(v)}; }
constexpr Hertz operator""_kHz(long double v) { return Hertz{static_cast<double>(v) * 1e3}; }
constexpr Hertz operator""_MHz(long double v) { return Hertz{static_cast<double>(v) * 1e6}; }
constexpr Amperes operator""_A(long double v) { return Amperes{static_cast<double>(v)}; }
constexpr Amperes operator""_mA(long double v) { return Amperes{static_cast<double>(v) * 1e-3}; }
constexpr Watts operator""_W(long double v) { return Watts{static_cast<double>(v)}; }
constexpr Watts operator""_mW(long double v) { return Watts{static_cast<double>(v) * 1e-3}; }
constexpr Joules operator""_J(long double v) { return Joules{static_cast<double>(v)}; }
constexpr Volts operator""_V(long double v) { return Volts{static_cast<double>(v)}; }
constexpr Ohms operator""_Ohm(long double v) { return Ohms{static_cast<double>(v)}; }
constexpr Lumens operator""_lm(long double v) { return Lumens{static_cast<double>(v)}; }
constexpr Lux operator""_lx(long double v) { return Lux{static_cast<double>(v)}; }
constexpr Lux operator""_lx(unsigned long long v) { return Lux{static_cast<double>(v)}; }
constexpr LumensPerWatt operator""_lm_per_W(long double v) { return LumensPerWatt{static_cast<double>(v)}; }
constexpr BitsPerSecond operator""_bps(long double v) { return BitsPerSecond{static_cast<double>(v)}; }
constexpr BitsPerSecond operator""_bps(unsigned long long v) { return BitsPerSecond{static_cast<double>(v)}; }
constexpr BitsPerSecond operator""_kbps(long double v) { return BitsPerSecond{static_cast<double>(v) * 1e3}; }
constexpr BitsPerSecond operator""_Mbps(long double v) { return BitsPerSecond{static_cast<double>(v) * 1e6}; }

}  // namespace literals
}  // namespace densevlc
