#include "coding/reed_solomon.h"

#include <algorithm>

#include "common/error.h"
#include "common/narrow.h"

namespace rt::coding {

namespace {

const Gf256& gf() { return Gf256::instance(); }

/// Evaluates polynomial (coefficients low-degree-first) at x.
std::uint8_t poly_eval(std::span<const std::uint8_t> poly, std::uint8_t x) {
  std::uint8_t y = 0;
  // Horner, high-degree first.
  for (std::size_t i = poly.size(); i-- > 0;) y = narrow_cast<std::uint8_t>(gf().mul(y, x) ^ poly[i]);
  return y;
}

}  // namespace

ReedSolomon::ReedSolomon(std::size_t n, std::size_t k) : n_(n), k_(k) {
  RT_ENSURE(n >= 3 && n <= 255, "RS n must be in [3, 255]");
  RT_ENSURE(k >= 1 && k < n, "RS k must be in [1, n)");
  // Generator g(x) = prod_{i=0}^{n-k-1} (x - alpha^i); low-degree-first.
  generator_ = {1};
  for (std::size_t i = 0; i < n_ - k_; ++i) {
    const std::uint8_t root = gf().pow_alpha(narrow_cast<int>(i));
    std::vector<std::uint8_t> next(generator_.size() + 1, 0);
    for (std::size_t j = 0; j < generator_.size(); ++j) {
      next[j + 1] ^= generator_[j];                  // x * g
      next[j] ^= gf().mul(generator_[j], root);      // root * g
    }
    generator_ = std::move(next);
  }
}

void ReedSolomon::encode_block_into(std::span<const std::uint8_t> data, Scratch& scratch,
                                    std::span<std::uint8_t> out) const {
  RT_ENSURE(data.size() == k_, "encode_block_into expects exactly k data bytes");
  RT_ENSURE(out.size() == n_, "out must have exactly n bytes");
  const std::size_t parity = n_ - k_;
  // Systematic encoding: remainder of data(x) * x^(n-k) mod g(x).
  scratch.rem.assign(parity, 0);
  auto& rem = scratch.rem;
  for (std::size_t i = 0; i < k_; ++i) {
    const std::uint8_t feedback = narrow_cast<std::uint8_t>(data[i] ^ rem[parity - 1]);
    for (std::size_t j = parity; j-- > 1;)
      rem[j] = narrow_cast<std::uint8_t>(rem[j - 1] ^ gf().mul(feedback, generator_[j]));
    rem[0] = gf().mul(feedback, generator_[0]);
  }
  std::copy(data.begin(), data.end(), out.begin());
  // Parity appended high-degree-first to keep the codeword poly consistent.
  for (std::size_t j = parity; j-- > 0;) out[k_ + (parity - 1 - j)] = rem[j];
}

bool ReedSolomon::decode_block_into(std::span<const std::uint8_t> codeword,
                                    std::span<const std::size_t> erasures, Scratch& ws,
                                    std::span<std::uint8_t> data_out) const {
  RT_ENSURE(codeword.size() == n_, "decode_block_into expects exactly n bytes");
  RT_ENSURE(data_out.size() == k_, "data_out must have exactly k bytes");
  const std::size_t parity = n_ - k_;
  const std::size_t f = erasures.size();
  // The received systematic prefix is the fallback output on failure.
  std::copy_n(codeword.begin(), static_cast<std::ptrdiff_t>(k_), data_out.begin());
  if (f > parity) return false;

  // Syndromes S_i = r(alpha^i); codeword[0] is the highest-degree coeff.
  ws.synd.resize(parity);
  bool all_zero = true;
  for (std::size_t i = 0; i < parity; ++i) {
    const std::uint8_t x = gf().pow_alpha(narrow_cast<int>(i));
    std::uint8_t y = 0;
    for (std::size_t j = 0; j < n_; ++j)
      y = narrow_cast<std::uint8_t>(gf().mul(y, x) ^ codeword[j]);
    ws.synd[i] = y;
    all_zero = all_zero && (y == 0);
  }
  if (all_zero) return true;

  // Combined locator seeded with the erasure locator
  // Gamma(x) = prod_j (1 + X_j x), X_j = alpha^(n-1-j) for position j.
  ws.lambda.assign(parity + 1, 0);
  ws.lambda[0] = 1;
  for (std::size_t e = 0; e < f; ++e) {
    RT_ENSURE(erasures[e] < n_, "erasure position out of range");
    const std::uint8_t x = gf().pow_alpha(narrow_cast<int>(n_ - 1 - erasures[e]));
    for (std::size_t i = e + 1; i-- > 0;)
      ws.lambda[i + 1] = narrow_cast<std::uint8_t>(ws.lambda[i + 1] ^ gf().mul(ws.lambda[i], x));
  }
  ws.b_poly.assign(ws.lambda.begin(), ws.lambda.end());
  ws.t_poly.resize(parity + 1);

  // Berlekamp-Massey over the remaining syndromes, erasure-initialized
  // (Karn-style indices: r counts processed syndromes 1-based, el tracks
  // the register length, starting from the erasure count).
  std::size_t el = f;
  const auto shift_b = [&] {
    for (std::size_t i = parity; i-- > 0;) ws.b_poly[i + 1] = ws.b_poly[i];
    ws.b_poly[0] = 0;
  };
  for (std::size_t r = f + 1; r <= parity; ++r) {
    std::uint8_t discr = 0;
    for (std::size_t i = 0; i < r; ++i)
      discr = narrow_cast<std::uint8_t>(discr ^ gf().mul(ws.lambda[i], ws.synd[r - 1 - i]));
    if (discr == 0) {
      shift_b();
      continue;
    }
    ws.t_poly[0] = ws.lambda[0];
    for (std::size_t i = 0; i < parity; ++i)
      ws.t_poly[i + 1] =
          narrow_cast<std::uint8_t>(ws.lambda[i + 1] ^ gf().mul(discr, ws.b_poly[i]));
    if (2 * el <= r + f - 1) {
      el = r + f - el;
      for (std::size_t i = 0; i <= parity; ++i) ws.b_poly[i] = gf().div(ws.lambda[i], discr);
    } else {
      shift_b();
    }
    std::copy(ws.t_poly.begin(), ws.t_poly.end(), ws.lambda.begin());
  }

  std::size_t deg = parity;
  while (deg > 0 && ws.lambda[deg] == 0) --deg;
  // e = deg - f extra errors must satisfy 2e + f <= parity.
  if (deg < f || 2 * deg > parity + f) return false;

  // Chien search over every position; the root count must match the
  // locator degree or the locator is bogus (too many errors).
  ws.error_pos.clear();
  ws.error_pos.reserve(parity);
  const std::span<const std::uint8_t> lambda_poly(ws.lambda.data(), deg + 1);
  for (std::size_t j = 0; j < n_; ++j) {
    const int power = -narrow_cast<int>(n_ - 1 - j);
    if (poly_eval(lambda_poly, gf().pow_alpha(power)) == 0) ws.error_pos.push_back(j);
  }
  if (ws.error_pos.size() != deg) return false;

  // Forney: omega(x) = [S(x) lambda(x)] mod x^parity, then
  // e_j = Xj * omega(Xj^-1) / lambda'(Xj^-1) (first root alpha^0).
  ws.omega.assign(parity, 0);
  for (std::size_t i = 0; i < parity; ++i) {
    for (std::size_t j = 0; j <= deg && j <= i; ++j)
      ws.omega[i] = narrow_cast<std::uint8_t>(ws.omega[i] ^ gf().mul(ws.synd[i - j], ws.lambda[j]));
  }
  ws.deriv.assign(deg == 0 ? 1 : deg, 0);
  for (std::size_t i = 1; i <= deg; i += 2) ws.deriv[i - 1] = ws.lambda[i];

  ws.corrected.assign(codeword.begin(), codeword.end());
  for (const auto j : ws.error_pos) {
    const int loc_power = narrow_cast<int>(n_ - 1 - j);
    const std::uint8_t x_inv = gf().pow_alpha(-loc_power);
    const std::uint8_t num = poly_eval(ws.omega, x_inv);
    const std::uint8_t den = poly_eval(ws.deriv, x_inv);
    if (den == 0) return false;
    const std::uint8_t magnitude = gf().mul(gf().pow_alpha(loc_power), gf().div(num, den));
    ws.corrected[j] = narrow_cast<std::uint8_t>(ws.corrected[j] ^ magnitude);
  }

  // Verify by re-computing syndromes.
  for (std::size_t i = 0; i < parity; ++i) {
    const std::uint8_t x = gf().pow_alpha(narrow_cast<int>(i));
    std::uint8_t y = 0;
    for (std::size_t j = 0; j < n_; ++j)
      y = narrow_cast<std::uint8_t>(gf().mul(y, x) ^ ws.corrected[j]);
    if (y != 0) return false;
  }
  std::copy_n(ws.corrected.begin(), static_cast<std::ptrdiff_t>(k_), data_out.begin());
  return true;
}

}  // namespace rt::coding
