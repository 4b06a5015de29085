#include "dsp/dct.hpp"

#include <cmath>

#include "common/check.hpp"
#include "dsp/fft.hpp"

namespace flexcs::dsp {
namespace {

constexpr double kPi = 3.1415926535897932384626433832795;

// Runs `pass(row_plan, col_plan)` with the folded 1-D plans (dsp/fft.hpp)
// of a rows×cols grid. A square grid builds one plan and passes it as both.
template <typename Pass>
void with_plans(std::size_t rows, std::size_t cols, const Pass& pass) {
  const Dct1dPlan row_plan(cols);
  if (rows == cols) {
    pass(row_plan, row_plan);
    return;
  }
  pass(row_plan, Dct1dPlan(rows));
}

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

la::Matrix dct2d(const la::Matrix& img) {
  FLEXCS_CHECK(!img.empty(), "dct2d of empty matrix");
  // Separable: one folded 1-D pass along each axis.
  la::Matrix out(img.rows(), img.cols());
  with_plans(img.rows(), img.cols(),
             [&](const Dct1dPlan& row_plan, const Dct1dPlan& col_plan) {
               DctWorkspace ws;
               dct2d_apply(row_plan, col_plan, img.data(), out.data(),
                           img.rows(), img.cols(), ws);
             });
  return out;
}

la::Matrix idct2d(const la::Matrix& coeffs) {
  FLEXCS_CHECK(!coeffs.empty(), "idct2d of empty matrix");
  la::Matrix out(coeffs.rows(), coeffs.cols());
  with_plans(coeffs.rows(), coeffs.cols(),
             [&](const Dct1dPlan& row_plan, const Dct1dPlan& col_plan) {
               DctWorkspace ws;
               idct2d_apply(row_plan, col_plan, coeffs.data(), out.data(),
                            coeffs.rows(), coeffs.cols(), ws);
             });
  return out;
}

std::vector<std::size_t> zigzag_order(std::size_t rows, std::size_t cols) {
  FLEXCS_CHECK(rows > 0 && cols > 0, "zigzag_order of empty grid");
  std::vector<std::size_t> order;
  order.reserve(rows * cols);
  const std::size_t diagonals = rows + cols - 1;
  for (std::size_t d = 0; d < diagonals; ++d) {
    if (d % 2 == 0) {
      // Walk up-right: start at the lowest row on this diagonal.
      std::size_t r = (d < rows) ? d : rows - 1;
      std::size_t c = d - r;
      while (c < cols) {
        order.push_back(r * cols + c);
        if (r == 0) break;
        --r;
        ++c;
      }
    } else {
      // Walk down-left.
      std::size_t c = (d < cols) ? d : cols - 1;
      std::size_t r = d - c;
      while (r < rows) {
        order.push_back(r * cols + c);
        if (c == 0) break;
        ++r;
        --c;
      }
    }
  }
  return order;
}

}  // namespace flexcs::dsp
