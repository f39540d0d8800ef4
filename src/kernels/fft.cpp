#include "kernels/fft.hpp"

#include <cmath>
#include <algorithm>
#include <numbers>

#include "core/error.hpp"

namespace pvc::kernels {
namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

/// Bluestein chirp-z: expresses an arbitrary-length DFT as a convolution,
/// evaluated with power-of-two FFTs of length >= 2n-1.
void bluestein(std::span<const cplx> in, std::span<cplx> out, bool inverse) {
  const std::size_t n = in.size();
  const double sign = inverse ? 1.0 : -1.0;
  const std::size_t m = next_pow2(2 * n - 1);

  // Chirp w_k = exp(sign * i*pi*k^2 / n); k^2 mod 2n avoids precision
  // loss for large k.
  std::vector<cplx> chirp(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double angle = std::numbers::pi *
                         static_cast<double>((k * k) % (2 * n)) /
                         static_cast<double>(n);
    chirp[k] = cplx(std::cos(angle), sign * std::sin(angle));
  }

  std::vector<cplx> a(m, cplx(0.0, 0.0));
  std::vector<cplx> b(m, cplx(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    a[k] = in[k] * chirp[k];
  }
  b[0] = std::conj(chirp[0]);
  for (std::size_t k = 1; k < n; ++k) {
    b[k] = std::conj(chirp[k]);
    b[m - k] = std::conj(chirp[k]);
  }

  fft_pow2_inplace(a, false);
  fft_pow2_inplace(b, false);
  for (std::size_t k = 0; k < m; ++k) {
    a[k] *= b[k];
  }
  fft_pow2_inplace(a, true);
  const double scale = 1.0 / static_cast<double>(m);
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = a[k] * chirp[k] * scale;
  }
}

}  // namespace

void fft_pow2_inplace(std::span<cplx> data, bool inverse) {
  const std::size_t n = data.size();
  ensure(is_pow2(n), "fft_pow2_inplace: length must be a power of two");
  if (n <= 1) {
    return;
  }

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; (j & bit) != 0; bit >>= 1) {
      j ^= bit;
    }
    j |= bit;
    if (i < j) {
      std::swap(data[i], data[j]);
    }
  }

  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        sign * 2.0 * std::numbers::pi / static_cast<double>(len);
    const cplx wl(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      cplx w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cplx u = data[i + k];
        const cplx v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wl;
      }
    }
  }
}

void fft(std::span<const cplx> in, std::span<cplx> out, bool inverse) {
  ensure(in.size() == out.size(), "fft: in/out size mismatch");
  ensure(!in.empty(), "fft: empty input");
  ensure(in.data() != out.data(), "fft: in and out must not alias");
  const std::size_t n = in.size();
  if (is_pow2(n)) {
    std::copy(in.begin(), in.end(), out.begin());
    fft_pow2_inplace(out, inverse);
    return;
  }
  bluestein(in, out, inverse);
}

std::vector<cplx> fft_forward(std::span<const cplx> in) {
  std::vector<cplx> out(in.size());
  fft(in, out, false);
  return out;
}

std::vector<cplx> fft_inverse_scaled(std::span<const cplx> in) {
  std::vector<cplx> out(in.size());
  fft(in, out, true);
  const double scale = 1.0 / static_cast<double>(in.size());
  for (auto& v : out) {
    v *= scale;
  }
  return out;
}

std::vector<cplx> fft_real(std::span<const double> in) {
  std::vector<cplx> complex_in(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    complex_in[i] = cplx(in[i], 0.0);
  }
  return fft_forward(complex_in);
}

void fft_2d(std::span<cplx> data, std::size_t rows, std::size_t cols,
            bool inverse) {
  ensure(data.size() == rows * cols, "fft_2d: shape mismatch");
  ensure(rows > 0 && cols > 0, "fft_2d: empty shape");

  std::vector<cplx> scratch(std::max(rows, cols));
  // Rows.
  for (std::size_t r = 0; r < rows; ++r) {
    auto row = data.subspan(r * cols, cols);
    fft(std::span<const cplx>(row.data(), cols),
        std::span<cplx>(scratch.data(), cols), inverse);
    std::copy_n(scratch.begin(), cols, row.begin());
  }
  // Columns.
  std::vector<cplx> column(rows);
  for (std::size_t c = 0; c < cols; ++c) {
    for (std::size_t r = 0; r < rows; ++r) {
      column[r] = data[r * cols + c];
    }
    fft(std::span<const cplx>(column.data(), rows),
        std::span<cplx>(scratch.data(), rows), inverse);
    for (std::size_t r = 0; r < rows; ++r) {
      data[r * cols + c] = scratch[r];
    }
  }
}

}  // namespace pvc::kernels
