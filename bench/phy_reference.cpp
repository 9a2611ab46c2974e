// Frozen pre-LUT scalar PHY implementations. See phy_reference.hpp —
// this code is intentionally identical to the production sources before
// the LUT/zero-allocation rework and must not be modernised.
#include "phy_reference.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/contracts.hpp"
#include "phy/gf256.hpp"

namespace densevlc::bench::ref {

namespace gf = densevlc::phy::gf256;
using densevlc::phy::Chip;
using densevlc::phy::kMaxPayload;
using densevlc::phy::kRsBlockData;
using densevlc::phy::kRsBlockParity;
using densevlc::phy::kSfd;
using densevlc::phy::MacFrame;
using densevlc::phy::ParsedFrame;
using densevlc::phy::RsDecodeResult;

std::vector<Chip> manchester_encode(std::span<const std::uint8_t> bits) {
  std::vector<Chip> chips;
  chips.reserve(bits.size() * 2);
  for (std::uint8_t bit : bits) {
    if (bit) {
      chips.push_back(Chip::kHigh);  // 1: Ih -> Il
      chips.push_back(Chip::kLow);
    } else {
      chips.push_back(Chip::kLow);   // 0: Il -> Ih
      chips.push_back(Chip::kHigh);
    }
  }
  return chips;
}

LenientDecode manchester_decode_lenient(std::span<const Chip> chips) {
  LenientDecode out;
  out.bits.reserve(chips.size() / 2);
  for (std::size_t i = 0; i + 1 < chips.size(); i += 2) {
    if (chips[i] == Chip::kLow && chips[i + 1] == Chip::kHigh) {
      out.bits.push_back(0);
    } else if (chips[i] == Chip::kHigh && chips[i + 1] == Chip::kLow) {
      out.bits.push_back(1);
    } else {
      out.bits.push_back(0);
      ++out.violations;
    }
  }
  if (chips.size() % 2 != 0) ++out.violations;
  return out;
}

std::vector<std::uint8_t> bytes_to_bits(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint8_t> bits;
  bits.reserve(bytes.size() * 8);
  for (std::uint8_t b : bytes) {
    for (int i = 7; i >= 0; --i) {
      bits.push_back(static_cast<std::uint8_t>((b >> i) & 1));
    }
  }
  return bits;
}

std::optional<std::vector<std::uint8_t>> bits_to_bytes(
    std::span<const std::uint8_t> bits) {
  if (bits.size() % 8 != 0) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  bytes.reserve(bits.size() / 8);
  for (std::size_t i = 0; i < bits.size(); i += 8) {
    std::uint8_t b = 0;
    for (std::size_t j = 0; j < 8; ++j) {
      b = static_cast<std::uint8_t>((b << 1) | (bits[i + j] & 1));
    }
    bytes.push_back(b);
  }
  return bytes;
}

namespace {

std::vector<std::size_t> permutation(std::size_t size, std::size_t depth) {
  const std::size_t cols = (size + depth - 1) / depth;
  std::vector<std::size_t> perm;
  perm.reserve(size);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < depth; ++r) {
      const std::size_t idx = r * cols + c;
      if (idx < size) perm.push_back(idx);
    }
  }
  return perm;
}

}  // namespace

std::vector<std::uint8_t> interleave(std::span<const std::uint8_t> data,
                                     std::size_t depth) {
  if (depth <= 1 || data.size() <= depth) {
    return {data.begin(), data.end()};
  }
  const auto perm = permutation(data.size(), depth);
  std::vector<std::uint8_t> out(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    out[i] = data[perm[i]];
  }
  return out;
}

std::vector<std::uint8_t> deinterleave(std::span<const std::uint8_t> data,
                                       std::size_t depth) {
  if (depth <= 1 || data.size() <= depth) {
    return {data.begin(), data.end()};
  }
  const auto perm = permutation(data.size(), depth);
  std::vector<std::uint8_t> out(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    out[perm[i]] = data[i];
  }
  return out;
}

ReedSolomon::ReedSolomon(std::size_t parity_symbols)
    : n_parity_{parity_symbols} {
  if (parity_symbols < 2 || parity_symbols > 254 || parity_symbols % 2 != 0) {
    throw std::invalid_argument{
        "ReedSolomon: parity_symbols must be even and in [2, 254]"};
  }
  generator_ = {1};
  for (std::size_t i = 0; i < n_parity_; ++i) {
    const std::uint8_t root = gf::pow_alpha(static_cast<int>(i));
    const std::uint8_t factor[2] = {1, root};
    generator_ = gf::poly_mul(generator_, factor);
  }
  DVLC_ASSERT(generator_.size() == n_parity_ + 1 && generator_.front() == 1,
              "RS generator polynomial must be monic of degree 2t");
}

std::vector<std::uint8_t> ReedSolomon::encode(
    std::span<const std::uint8_t> message) const {
  if (message.size() + n_parity_ > 255) {
    throw std::invalid_argument{"ReedSolomon: message too long for GF(256)"};
  }
  std::vector<std::uint8_t> remainder(n_parity_, 0);
  for (std::uint8_t byte : message) {
    const std::uint8_t feedback = gf::add(byte, remainder.front());
    std::rotate(remainder.begin(), remainder.begin() + 1, remainder.end());
    remainder.back() = 0;
    if (feedback != 0) {
      for (std::size_t i = 0; i < n_parity_; ++i) {
        remainder[i] = gf::add(remainder[i],
                               gf::mul(feedback, generator_[i + 1]));
      }
    }
  }
  std::vector<std::uint8_t> codeword(message.begin(), message.end());
  codeword.insert(codeword.end(), remainder.begin(), remainder.end());
  return codeword;
}

std::optional<RsDecodeResult> ReedSolomon::decode(
    std::span<const std::uint8_t> codeword) const {
  if (codeword.size() <= n_parity_ || codeword.size() > 255)
    return std::nullopt;
  const std::size_t n = codeword.size();
  const std::size_t k = n - n_parity_;

  std::vector<std::uint8_t> syndromes(n_parity_);
  bool all_zero = true;
  for (std::size_t i = 0; i < n_parity_; ++i) {
    syndromes[i] = gf::poly_eval(codeword, gf::pow_alpha(static_cast<int>(i)));
    all_zero = all_zero && syndromes[i] == 0;
  }
  if (all_zero) {
    return RsDecodeResult{
        {codeword.begin(), codeword.begin() + static_cast<std::ptrdiff_t>(k)},
        0};
  }

  std::vector<std::uint8_t> sigma{1};
  std::vector<std::uint8_t> prev_sigma{1};
  std::size_t errors = 0;
  std::size_t m = 1;
  std::uint8_t prev_discrepancy = 1;
  for (std::size_t step = 0; step < n_parity_; ++step) {
    std::uint8_t d = syndromes[step];
    for (std::size_t i = 1; i < sigma.size() && i <= step; ++i) {
      d = gf::add(d, gf::mul(sigma[i], syndromes[step - i]));
    }
    if (d == 0) {
      ++m;
      continue;
    }
    if (2 * errors <= step) {
      const std::vector<std::uint8_t> old_sigma = sigma;
      const std::uint8_t coeff = gf::div(d, prev_discrepancy);
      std::vector<std::uint8_t> adjust(prev_sigma.size() + m, 0);
      for (std::size_t i = 0; i < prev_sigma.size(); ++i) {
        adjust[i + m] = gf::mul(prev_sigma[i], coeff);
      }
      if (adjust.size() > sigma.size()) sigma.resize(adjust.size(), 0);
      for (std::size_t i = 0; i < adjust.size(); ++i) {
        sigma[i] = gf::add(sigma[i], adjust[i]);
      }
      errors = step + 1 - errors;
      prev_sigma = old_sigma;
      prev_discrepancy = d;
      m = 1;
    } else {
      const std::uint8_t coeff = gf::div(d, prev_discrepancy);
      std::vector<std::uint8_t> adjust(prev_sigma.size() + m, 0);
      for (std::size_t i = 0; i < prev_sigma.size(); ++i) {
        adjust[i + m] = gf::mul(prev_sigma[i], coeff);
      }
      if (adjust.size() > sigma.size()) sigma.resize(adjust.size(), 0);
      for (std::size_t i = 0; i < adjust.size(); ++i) {
        sigma[i] = gf::add(sigma[i], adjust[i]);
      }
      ++m;
    }
  }
  while (!sigma.empty() && sigma.back() == 0) sigma.pop_back();
  const std::size_t num_errors = sigma.size() - 1;
  if (num_errors == 0 || num_errors > correction_capacity())
    return std::nullopt;

  std::vector<std::size_t> error_positions;
  for (std::size_t pos = 0; pos < n; ++pos) {
    const int exponent = static_cast<int>(n - 1 - pos);
    const std::uint8_t x_inv = gf::pow_alpha(-exponent);
    std::uint8_t acc = 0;
    for (std::size_t i = sigma.size(); i-- > 0;) {
      acc = gf::add(gf::mul(acc, x_inv), sigma[i]);
    }
    if (acc == 0) error_positions.push_back(pos);
  }
  if (error_positions.size() != num_errors) return std::nullopt;

  std::vector<std::uint8_t> omega(n_parity_, 0);
  for (std::size_t i = 0; i < sigma.size(); ++i) {
    for (std::size_t j = 0; j + i < n_parity_ && j < syndromes.size(); ++j) {
      omega[i + j] = gf::add(omega[i + j], gf::mul(sigma[i], syndromes[j]));
    }
  }
  std::vector<std::uint8_t> sigma_deriv;
  for (std::size_t i = 1; i < sigma.size(); i += 2) {
    sigma_deriv.push_back(sigma[i]);
  }

  std::vector<std::uint8_t> corrected(codeword.begin(), codeword.end());
  for (std::size_t pos : error_positions) {
    const int exponent = static_cast<int>(n - 1 - pos);
    const std::uint8_t x_inv = gf::pow_alpha(-exponent);
    std::uint8_t num = 0;
    for (std::size_t i = omega.size(); i-- > 0;) {
      num = gf::add(gf::mul(num, x_inv), omega[i]);
    }
    const std::uint8_t x_inv2 = gf::mul(x_inv, x_inv);
    std::uint8_t den = 0;
    for (std::size_t i = sigma_deriv.size(); i-- > 0;) {
      den = gf::add(gf::mul(den, x_inv2), sigma_deriv[i]);
    }
    if (den == 0) return std::nullopt;
    const std::uint8_t magnitude =
        gf::mul(gf::div(num, den), gf::pow_alpha(exponent));
    corrected[pos] = gf::add(corrected[pos], magnitude);
  }

  for (std::size_t i = 0; i < n_parity_; ++i) {
    if (gf::poly_eval(corrected, gf::pow_alpha(static_cast<int>(i))) != 0) {
      return std::nullopt;
    }
  }

  return RsDecodeResult{
      {corrected.begin(), corrected.begin() + static_cast<std::ptrdiff_t>(k)},
      error_positions.size()};
}

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xFF));
}

std::uint16_t get_u16(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint16_t>((in[at] << 8) | in[at + 1]);
}

const ReedSolomon& rs_codec() {
  static const ReedSolomon rs{kRsBlockParity};
  return rs;
}

constexpr std::size_t kHeaderBytes = 9;

}  // namespace

std::vector<std::uint8_t> serialize_frame(const MacFrame& frame) {
  if (frame.payload.size() > kMaxPayload) {
    throw std::invalid_argument{
        "serialize_frame: payload exceeds kMaxPayload"};
  }
  std::vector<std::uint8_t> out;
  out.reserve(phy::serialized_frame_bytes(frame.payload.size()));
  out.push_back(kSfd);
  put_u16(out, static_cast<std::uint16_t>(frame.payload.size()));
  put_u16(out, frame.dst);
  put_u16(out, frame.src);
  put_u16(out, frame.protocol);
  out.insert(out.end(), frame.payload.begin(), frame.payload.end());
  const auto& rs = rs_codec();
  for (std::size_t off = 0; off < frame.payload.size(); off += kRsBlockData) {
    const std::size_t len =
        std::min(kRsBlockData, frame.payload.size() - off);
    const auto cw = rs.encode(
        std::span<const std::uint8_t>{frame.payload}.subspan(off, len));
    out.insert(out.end(),
               cw.end() - static_cast<std::ptrdiff_t>(kRsBlockParity),
               cw.end());
  }
  return out;
}

std::optional<ParsedFrame> parse_frame(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 9) return std::nullopt;
  if (bytes[0] != kSfd) return std::nullopt;
  const std::uint16_t length = get_u16(bytes, 1);
  if (length > kMaxPayload) return std::nullopt;
  const std::size_t blocks = (length + kRsBlockData - 1) / kRsBlockData;
  const std::size_t expected = 9 + length + blocks * kRsBlockParity;
  if (bytes.size() < expected) return std::nullopt;

  ParsedFrame out;
  out.frame.dst = get_u16(bytes, 3);
  out.frame.src = get_u16(bytes, 5);
  out.frame.protocol = get_u16(bytes, 7);

  const auto& rs = rs_codec();
  out.frame.payload.reserve(length);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t off = b * kRsBlockData;
    const std::size_t len = std::min(kRsBlockData,
                                     static_cast<std::size_t>(length) - off);
    std::vector<std::uint8_t> codeword;
    codeword.reserve(len + kRsBlockParity);
    const auto data_at = static_cast<std::ptrdiff_t>(9 + off);
    codeword.insert(codeword.end(), bytes.begin() + data_at,
                    bytes.begin() + data_at +
                        static_cast<std::ptrdiff_t>(len));
    const std::size_t parity_at = 9 + length + b * kRsBlockParity;
    codeword.insert(
        codeword.end(), bytes.begin() + static_cast<std::ptrdiff_t>(parity_at),
        bytes.begin() + static_cast<std::ptrdiff_t>(parity_at +
                                                    kRsBlockParity));
    const auto decoded = rs.decode(codeword);
    if (!decoded) return std::nullopt;
    out.corrected_bytes += decoded->corrected_errors;
    out.frame.payload.insert(out.frame.payload.end(), decoded->data.begin(),
                             decoded->data.end());
  }
  return out;
}

std::vector<Chip> codec_encode_chips(const MacFrame& frame,
                                     std::size_t depth) {
  // Qualified: ADL on MacFrame would also find phy::serialize_frame.
  auto wire = ref::serialize_frame(frame);
  if (depth > 1 && wire.size() > kHeaderBytes) {
    const std::span<const std::uint8_t> body{wire.data() + kHeaderBytes,
                                             wire.size() - kHeaderBytes};
    const auto mixed = interleave(body, depth);
    std::copy(mixed.begin(), mixed.end(),
              wire.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes));
  }
  return manchester_encode(bytes_to_bits(wire));
}

std::optional<ParsedFrame> codec_decode_chips(std::span<const Chip> chips,
                                              std::size_t depth) {
  // Qualified: ADL on Chip would also find phy::manchester_decode_lenient.
  const auto decoded = ref::manchester_decode_lenient(chips);
  const auto bytes = bits_to_bytes(decoded.bits);
  if (!bytes) return std::nullopt;
  if (depth <= 1 || bytes->size() <= kHeaderBytes) {
    return parse_frame(*bytes);
  }
  std::vector<std::uint8_t> wire = *bytes;
  const std::span<const std::uint8_t> body{wire.data() + kHeaderBytes,
                                           wire.size() - kHeaderBytes};
  const auto restored = deinterleave(body, depth);
  std::copy(restored.begin(), restored.end(),
            wire.begin() + static_cast<std::ptrdiff_t>(kHeaderBytes));
  return parse_frame(wire);
}

std::optional<dsp::PeakDetection> detect_pattern(
    std::span<const double> signal, std::span<const double> pattern,
    double threshold) {
  if (pattern.empty() || signal.size() < pattern.size()) return std::nullopt;
  const std::size_t m = pattern.size();

  double pat_mean = 0.0;
  for (double p : pattern) pat_mean += p;
  pat_mean /= static_cast<double>(m);
  std::vector<double> pat(m);
  double pat_energy = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    pat[j] = pattern[j] - pat_mean;
    pat_energy += pat[j] * pat[j];
  }
  const std::size_t n = signal.size() - m + 1;
  std::vector<double> scores(n, 0.0);
  if (pat_energy > 0.0) {
    std::vector<double> means(n);
    std::vector<double> vars(n);
    double win_sum = 0.0;
    double win_sq = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      win_sum += signal[j];
      win_sq += signal[j] * signal[j];
    }
    for (std::size_t i = 0; i < n; ++i) {
      means[i] = win_sum / static_cast<double>(m);
      vars[i] = win_sq - win_sum * means[i];
      if (i + m < signal.size()) {
        win_sum += signal[i + m] - signal[i];
        win_sq += signal[i + m] * signal[i + m] - signal[i] * signal[i];
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const double var = vars[i];
      double score = 0.0;
      if (var > 1e-30) {
        const double mean = means[i];
        double dot = 0.0;
        for (std::size_t j = 0; j < m; ++j) {
          dot += (signal[i + j] - mean) * pat[j];
        }
        score = dot / std::sqrt(var * pat_energy);
      }
      scores[i] = score;
    }
  }

  std::optional<dsp::PeakDetection> best;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (scores[i] >= threshold && (!best || scores[i] > best->score)) {
      best = dsp::PeakDetection{i, scores[i]};
    }
  }
  return best;
}

dsp::Waveform render_optical(
    const optics::LedModel& led, const phy::OokParams& ook,
    std::span<const core::ServingTx> servers, const phy::MacFrame& frame,
    std::span<const core::InterfererGroup> interferers,
    double ambient_optical_w) {
  const auto frame_chip_count = [](const MacFrame& f) {
    return phy::kPreambleChips +
           16 * phy::serialized_frame_bytes(f.payload.size());
  };
  const std::size_t spc = ook.samples_per_chip;
  const double tx_rate = ook.sample_rate_hz();

  // Every participating chip stream shares one timeline.
  std::size_t longest_chips = frame_chip_count(frame);
  double max_offset = 0.0;
  for (const auto& s : servers) {
    max_offset = std::max(max_offset, std::fabs(s.start_offset_s));
  }
  for (const auto& group : interferers) {
    longest_chips = std::max(longest_chips, frame_chip_count(group.frame));
    for (const auto& s : group.txs) {
      max_offset = std::max(max_offset, std::fabs(s.start_offset_s));
    }
  }

  const std::size_t guard_samples = 16 * spc;
  const auto offset_samples_max =
      static_cast<std::size_t>(std::ceil(max_offset * tx_rate));
  const std::size_t total = longest_chips * spc + 2 * guard_samples +
                            2 * offset_samples_max;

  dsp::Waveform optical;
  optical.sample_rate_hz = tx_rate;
  optical.samples.assign(total, ambient_optical_w);

  const double eta = led.electrical().wall_plug_efficiency;
  const double bias = led.operating_point().bias_current_a;
  const double p_bias = eta * led.power_at_current(Amperes{bias}).value();
  const auto base_start =
      static_cast<double>(guard_samples + offset_samples_max);

  // Adds `level` over samples [from, to), clamped to the timeline.
  double* const out = optical.samples.data();
  const auto end = static_cast<std::ptrdiff_t>(total);
  const auto add_run = [out, end](std::ptrdiff_t from, std::ptrdiff_t to,
                                  double level) {
    from = std::clamp<std::ptrdiff_t>(from, 0, end);
    to = std::clamp<std::ptrdiff_t>(to, 0, end);
    for (std::ptrdiff_t s = from; s < to; ++s) out[s] += level;
  };

  const auto add_stream = [&](const core::ServingTx& server,
                              std::span<const Chip> stream) {
    if (server.gain <= 0.0) return;
    const auto start = static_cast<std::ptrdiff_t>(
        base_start +
        static_cast<double>(std::llround(server.start_offset_s * tx_rate)));
    const double half = server.swing_a / 2.0;
    const double p_high =
        eta * led.power_at_current(Amperes{bias + half}).value();
    const double p_low =
        eta * led.power_at_current(Amperes{bias - half}).value();
    const double idle = server.gain * p_bias;
    const double high = server.gain * p_high;
    const double low = server.gain * p_low;
    const auto run = static_cast<std::ptrdiff_t>(spc);
    const auto frame_end =
        start + static_cast<std::ptrdiff_t>(stream.size()) * run;

    add_run(0, start, idle);
    std::ptrdiff_t at = start;
    for (const Chip chip : stream) {
      add_run(at, at + run, chip == Chip::kHigh ? high : low);
      at += run;
    }
    add_run(frame_end, end, idle);
  };

  const std::vector<Chip> chips = phy::frame_to_chips(frame);
  for (const auto& server : servers) add_stream(server, chips);
  for (const auto& group : interferers) {
    const std::vector<Chip> group_chips = phy::frame_to_chips(group.frame);
    for (const auto& itx : group.txs) add_stream(itx, group_chips);
  }
  return optical;
}

}  // namespace densevlc::bench::ref
