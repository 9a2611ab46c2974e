// DVLC_HOT — zero-allocation sample path (see common/arena.hpp).
//
// Vector-backend instantiations of the PHY kernels. This is the only PHY
// TU compiled with the vector ISA flags (-mavx2 on x86; see
// src/phy/CMakeLists.txt), so `simd::VectorBackend` resolves to the wide
// backend here and to the scalar one everywhere else. Callers must gate
// on `simd::use_vector_kernels()` before entering these.
#include "phy/phy_kernels.hpp"

namespace densevlc::phy::detail {

void manchester_encode_bytes_vec(const std::uint8_t* bytes,
                                 std::size_t n_bytes,
                                 std::uint8_t* out_chips) {
  manchester_encode_bytes_kernel<simd::VectorBackend>(bytes, n_bytes,
                                                      out_chips);
}

std::size_t manchester_decode_bytes_vec(const std::uint8_t* chips,
                                        std::size_t n_bytes,
                                        std::uint8_t* out_bytes) {
  return manchester_decode_bytes_kernel<simd::VectorBackend>(chips, n_bytes,
                                                             out_bytes);
}

void rs_parity_cols_vec(const std::uint8_t* msg_cols, std::size_t msg_len,
                        const gf256::NibbleTables* taps, std::size_t np,
                        std::uint8_t* parity_cols, std::size_t width) {
  rs_parity_cols_kernel<simd::VectorBackend>(msg_cols, msg_len, taps, np,
                                             parity_cols, width);
}

void rs_syndrome_cols_vec(const std::uint8_t* cw_cols, std::size_t cw_len,
                          const gf256::NibbleTables* roots, std::size_t np,
                          std::uint8_t* synd_cols, std::size_t width) {
  rs_syndrome_cols_kernel<simd::VectorBackend>(cw_cols, cw_len, roots, np,
                                               synd_cols, width);
}

}  // namespace densevlc::phy::detail
