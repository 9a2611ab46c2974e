#include "phy/gf256.hpp"

#include <array>

#include "common/contracts.hpp"

namespace densevlc::phy::gf256 {
namespace {

constexpr unsigned kPrimitivePoly = 0x11D;

struct Tables {
  std::array<std::uint8_t, 512> exp{};  // doubled to skip a mod in mul
  std::array<std::uint8_t, 256> log{};

  Tables() {
    unsigned x = 1;
    for (int i = 0; i < 255; ++i) {
      exp[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(x);
      log[x] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= kPrimitivePoly;
    }
    for (int i = 255; i < 512; ++i) {
      exp[static_cast<std::size_t>(i)] =
          exp[static_cast<std::size_t>(i - 255)];
    }
    log[0] = 0;  // unused sentinel
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

}  // namespace

std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const auto& t = tables();
  return t.exp[static_cast<std::size_t>(t.log[a]) + t.log[b]];
}

std::uint8_t div(std::uint8_t a, std::uint8_t b) {
  DVLC_EXPECT(b != 0, "GF(256) division by zero");
  if (a == 0) return 0;
  const auto& t = tables();
  return t.exp[static_cast<std::size_t>(t.log[a]) + 255 - t.log[b]];
}

std::uint8_t inverse(std::uint8_t a) {
  DVLC_EXPECT(a != 0, "GF(256) inverse of zero");
  const auto& t = tables();
  return t.exp[static_cast<std::size_t>(255 - t.log[a])];
}

std::uint8_t pow_alpha(int power) {
  int p = power % 255;
  if (p < 0) p += 255;
  return tables().exp[static_cast<std::size_t>(p)];
}

std::uint8_t poly_eval(std::span<const std::uint8_t> poly, std::uint8_t x) {
  std::uint8_t acc = 0;
  for (std::uint8_t c : poly) acc = add(mul(acc, x), c);
  return acc;
}

MulRow mul_row(std::uint8_t c) {
  MulRow row{};
  for (unsigned x = 0; x < 256; ++x) {
    row[x] = mul(c, static_cast<std::uint8_t>(x));
  }
  return row;
}

std::vector<std::uint8_t> poly_mul(std::span<const std::uint8_t> a,
                                   std::span<const std::uint8_t> b) {
  if (a.empty() || b.empty()) return {};
  std::vector<std::uint8_t> out(a.size() + b.size() - 1, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i + j] = add(out[i + j], mul(a[i], b[j]));
    }
  }
  return out;
}

}  // namespace densevlc::phy::gf256
