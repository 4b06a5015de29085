#include "dsp/dct.hpp"

#include <cmath>

#include "common/check.hpp"

namespace flexcs::dsp {
namespace {

constexpr double kPi = 3.1415926535897932384626433832795;

}  // namespace

la::Matrix dct_matrix(std::size_t n) {
  FLEXCS_CHECK(n > 0, "dct_matrix requires n > 0");
  la::Matrix d(n, n);
  const double nd = static_cast<double>(n);
  for (std::size_t u = 0; u < n; ++u) {
    const double a = (u == 0) ? std::sqrt(1.0 / nd) : std::sqrt(2.0 / nd);
    for (std::size_t x = 0; x < n; ++x) {
      d(u, x) = a * std::cos(kPi * (2.0 * static_cast<double>(x) + 1.0) *
                             static_cast<double>(u) / (2.0 * nd));
    }
  }
  return d;
}

la::Vector dct1d(const la::Vector& x) {
  const std::size_t n = x.size();
  FLEXCS_CHECK(n > 0, "dct1d of empty vector");
  la::Vector out(n);
  const double nd = static_cast<double>(n);
  for (std::size_t u = 0; u < n; ++u) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i)
      s += x[i] * std::cos(kPi * (2.0 * static_cast<double>(i) + 1.0) *
                           static_cast<double>(u) / (2.0 * nd));
    const double a = (u == 0) ? std::sqrt(1.0 / nd) : std::sqrt(2.0 / nd);
    out[u] = a * s;
  }
  return out;
}

la::Vector idct1d(const la::Vector& X) {
  const std::size_t n = X.size();
  FLEXCS_CHECK(n > 0, "idct1d of empty vector");
  la::Vector out(n);
  const double nd = static_cast<double>(n);
  // Normalisation hoisted out of the loops: the DC term carries a_0 once,
  // every other coefficient shares the same a_u = sqrt(2/n).
  const double a0 = std::sqrt(1.0 / nd);
  const double a1 = std::sqrt(2.0 / nd);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t u = 1; u < n; ++u) {
      s += X[u] * std::cos(kPi * (2.0 * static_cast<double>(i) + 1.0) *
                           static_cast<double>(u) / (2.0 * nd));
    }
    out[i] = a0 * X[0] + a1 * s;
  }
  return out;
}

}  // namespace flexcs::dsp
