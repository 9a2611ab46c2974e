// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
#include "phy/reed_solomon.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/arena.hpp"
#include "common/contracts.hpp"
#include "phy/gf256.hpp"

namespace densevlc::phy {

namespace gf = gf256;

ReedSolomon::ReedSolomon(std::size_t parity_symbols)
    : n_parity_{parity_symbols} {
  if (parity_symbols < 2 || parity_symbols > 254 || parity_symbols % 2 != 0) {
    throw std::invalid_argument{
        "ReedSolomon: parity_symbols must be even and in [2, 254]"};
  }
  // Generator polynomial g(x) = prod_{i=0}^{2t-1} (x - alpha^i),
  // descending-degree coefficients.
  generator_ = {1};
  for (std::size_t i = 0; i < n_parity_; ++i) {
    const std::uint8_t root = gf::pow_alpha(static_cast<int>(i));
    const std::uint8_t factor[2] = {1, root};  // (x + alpha^i); char 2: -=+
    generator_ = gf::poly_mul(generator_, factor);
  }
  DVLC_ASSERT(generator_.size() == n_parity_ + 1 && generator_.front() == 1,
              "RS generator polynomial must be monic of degree 2t");
  encode_rows_.reserve(n_parity_);
  syndrome_rows_.reserve(n_parity_);
  for (std::size_t i = 0; i < n_parity_; ++i) {
    // DVLC_LINT_WAIVE(hot-loop-alloc): one-time construction, reserved above
    encode_rows_.push_back(gf::mul_row(generator_[i + 1]));
    // DVLC_LINT_WAIVE(hot-loop-alloc): one-time construction, reserved above
    syndrome_rows_.push_back(gf::mul_row(gf::pow_alpha(static_cast<int>(i))));
  }
}

void ReedSolomon::encode_parity_into(std::span<const std::uint8_t> message,
                                     std::span<std::uint8_t> parity) const {
  DVLC_EXPECT(parity.size() == n_parity_,
              "encode_parity_into: parity span size mismatch");
  DVLC_EXPECT(message.size() + n_parity_ <= 255,
              "encode_parity_into: message too long for GF(256)");
  // Systematic encoding: remainder of message * x^{2t} divided by g(x).
  // Fused shift + tap update: rem[i] = rem_old[i+1] ^ fb * g[i+1], with
  // the multiply served by the per-tap row table (row[0] == 0 covers the
  // fb == 0 case the scalar loop branched on).
  std::fill(parity.begin(), parity.end(), 0);
  for (std::uint8_t byte : message) {
    const std::uint8_t feedback = gf::add(byte, parity[0]);
    for (std::size_t i = 0; i + 1 < n_parity_; ++i) {
      parity[i] = gf::add(parity[i + 1], encode_rows_[i][feedback]);
    }
    parity[n_parity_ - 1] = encode_rows_[n_parity_ - 1][feedback];
  }
}

std::vector<std::uint8_t> ReedSolomon::encode(
    std::span<const std::uint8_t> message) const {
  if (message.size() + n_parity_ > 255) {
    throw std::invalid_argument{"ReedSolomon: message too long for GF(256)"};
  }
  std::vector<std::uint8_t> codeword(message.size() + n_parity_);
  std::copy(message.begin(), message.end(), codeword.begin());
  encode_parity_into(
      message, std::span<std::uint8_t>{codeword}.subspan(message.size()));
  return codeword;
}

bool ReedSolomon::syndromes_into(std::span<const std::uint8_t> codeword,
                                 std::uint8_t* out) const {
  // One pass over the codeword runs 2t independent Horner chains,
  // acc_i = alpha^i * acc_i + byte, each step one row-table load and one
  // XOR. The row pointer is a local so the byte stores cannot alias it.
  const gf::MulRow* rows = syndrome_rows_.data();
  std::fill_n(out, n_parity_, 0);
  for (const std::uint8_t c : codeword) {
    for (std::size_t i = 0; i < n_parity_; ++i) {
      out[i] = gf::add(rows[i][out[i]], c);
    }
  }
  return std::all_of(out, out + n_parity_,
                     [](std::uint8_t s) { return s == 0; });
}

bool ReedSolomon::decode_into(std::span<const std::uint8_t> codeword,
                              RsDecodeResult& out, RsScratch& scr) const {
  arena_clear(out.data);
  out.corrected_errors = 0;
  if (codeword.size() <= n_parity_ || codeword.size() > 255) return false;
  const std::size_t n = codeword.size();
  const std::size_t k = n - n_parity_;

  if (syndromes_into(codeword, scr.syndromes.data())) {
    arena_resize(out.data, k);
    std::copy_n(codeword.begin(), k, out.data.begin());
    return true;
  }

  // Berlekamp-Massey on the fixed workspace; lengths tracked explicitly.
  // Same update order as the allocating version, so the trimmed sigma is
  // byte-identical.
  scr.sigma[0] = 1;
  std::size_t sigma_len = 1;
  scr.prev_sigma[0] = 1;
  std::size_t prev_len = 1;
  std::size_t errors = 0;  // current LFSR length L
  std::size_t m = 1;       // steps since last update
  std::uint8_t prev_discrepancy = 1;
  for (std::size_t step = 0; step < n_parity_; ++step) {
    // Discrepancy: d = S_step + sum_{i=1}^{L} sigma_i * S_{step-i}.
    std::uint8_t d = scr.syndromes[step];
    for (std::size_t i = 1; i < sigma_len && i <= step; ++i) {
      d = gf::add(d, gf::mul(scr.sigma[i], scr.syndromes[step - i]));
    }
    if (d == 0) {
      ++m;
      continue;
    }
    const std::uint8_t coeff = gf::div(d, prev_discrepancy);
    const std::size_t adjust_len = prev_len + m;
    DVLC_ASSERT(adjust_len <= scr.adjust.size(),
                "RS scratch adjust buffer overflow");
    std::fill_n(scr.adjust.begin(), m, 0);
    for (std::size_t i = 0; i < prev_len; ++i) {
      scr.adjust[i + m] = gf::mul(scr.prev_sigma[i], coeff);
    }
    const bool length_change = 2 * errors <= step;
    std::size_t old_len = 0;
    if (length_change) {
      // sigma' = sigma - (d/b) x^m prev_sigma, L' = step+1-L.
      std::copy_n(scr.sigma.begin(), sigma_len, scr.old_sigma.begin());
      old_len = sigma_len;
    }
    if (adjust_len > sigma_len) {
      std::fill(scr.sigma.begin() + static_cast<std::ptrdiff_t>(sigma_len),
                scr.sigma.begin() + static_cast<std::ptrdiff_t>(adjust_len),
                0);
      sigma_len = adjust_len;
    }
    for (std::size_t i = 0; i < adjust_len; ++i) {
      scr.sigma[i] = gf::add(scr.sigma[i], scr.adjust[i]);
    }
    if (length_change) {
      errors = step + 1 - errors;
      std::copy_n(scr.old_sigma.begin(), old_len, scr.prev_sigma.begin());
      prev_len = old_len;
      prev_discrepancy = d;
      m = 1;
    } else {
      ++m;
    }
  }
  while (sigma_len > 0 && scr.sigma[sigma_len - 1] == 0) --sigma_len;
  DVLC_ASSERT(sigma_len > 0, "BM sigma lost its constant term");
  const std::size_t num_errors = sigma_len - 1;
  if (num_errors == 0 || num_errors > correction_capacity()) return false;

  // Chien search: roots of sigma are alpha^{-position} for codeword
  // positions counted from the highest-degree end (position 0 is the
  // first byte, exponent n-1 in the codeword polynomial).
  std::size_t n_found = 0;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const int exponent = static_cast<int>(n - 1 - pos);
    const std::uint8_t x_inv = gf::pow_alpha(-exponent);
    // Evaluate sigma (ascending order) at x_inv.
    std::uint8_t acc = 0;
    for (std::size_t i = sigma_len; i-- > 0;) {
      acc = gf::add(gf::mul(acc, x_inv), scr.sigma[i]);
    }
    if (acc == 0) {
      DVLC_ASSERT(n_found < scr.error_positions.size(),
                  "more sigma roots than its degree allows");
      scr.error_positions[n_found++] = pos;
    }
  }
  if (n_found != num_errors) return false;

  // Forney: error magnitudes from the error evaluator polynomial
  // omega(x) = [S(x) * sigma(x)] mod x^{2t}  (ascending order).
  std::fill_n(scr.omega.begin(), n_parity_, 0);
  for (std::size_t i = 0; i < sigma_len; ++i) {
    for (std::size_t j = 0; j + i < n_parity_ && j < n_parity_; ++j) {
      scr.omega[i + j] =
          gf::add(scr.omega[i + j], gf::mul(scr.sigma[i], scr.syndromes[j]));
    }
  }
  // Formal derivative of sigma: keep odd-degree terms shifted down.
  std::size_t deriv_len = 0;
  for (std::size_t i = 1; i < sigma_len; i += 2) {
    scr.sigma_deriv[deriv_len++] = scr.sigma[i];
  }

  std::copy(codeword.begin(), codeword.end(), scr.corrected.begin());
  for (std::size_t e = 0; e < n_found; ++e) {
    const std::size_t pos = scr.error_positions[e];
    const int exponent = static_cast<int>(n - 1 - pos);
    const std::uint8_t x_inv = gf::pow_alpha(-exponent);
    // omega(x_inv), ascending evaluation.
    std::uint8_t num = 0;
    for (std::size_t i = n_parity_; i-- > 0;) {
      num = gf::add(gf::mul(num, x_inv), scr.omega[i]);
    }
    // sigma'(x_inv): derivative has only even powers of x_inv left after
    // the shift; evaluate at x_inv^2.
    const std::uint8_t x_inv2 = gf::mul(x_inv, x_inv);
    std::uint8_t den = 0;
    for (std::size_t i = deriv_len; i-- > 0;) {
      den = gf::add(gf::mul(den, x_inv2), scr.sigma_deriv[i]);
    }
    if (den == 0) return false;
    // With syndromes anchored at alpha^0 (b = 0), Forney's formula carries
    // an extra factor X_j^{1-b} = X_j = alpha^{exponent}.
    const std::uint8_t magnitude =
        gf::mul(gf::div(num, den), gf::pow_alpha(exponent));
    scr.corrected[pos] = gf::add(scr.corrected[pos], magnitude);
  }

  // Verify: all syndromes of the corrected word must vanish.
  if (!syndromes_into({scr.corrected.data(), n}, scr.syndromes.data())) {
    return false;
  }

  arena_resize(out.data, k);
  std::copy_n(scr.corrected.begin(), k, out.data.begin());
  out.corrected_errors = n_found;
  return true;
}

std::optional<RsDecodeResult> ReedSolomon::decode(
    std::span<const std::uint8_t> codeword) const {
  RsScratch scratch;
  RsDecodeResult out;
  if (!decode_into(codeword, out, scratch)) return std::nullopt;
  return out;
}

}  // namespace densevlc::phy
