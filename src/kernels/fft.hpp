#pragma once
// Host-executed FFT.
//
// Functional transforms: iterative radix-2 Cooley-Tukey for power-of-two
// lengths and Bluestein's chirp-z algorithm for arbitrary lengths (the
// paper's N = 20000 and 10000 are not powers of two), plus 2D
// row-column transforms and a real-input wrapper.  Only tests call them;
// the benches price the paper's oneMKL FFT with micro::fft_kernel_desc.

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace pvc::kernels {

using cplx = std::complex<double>;

/// In-place radix-2 FFT; size must be a power of two.
/// `inverse` applies the conjugate transform *without* 1/N scaling.
void fft_pow2_inplace(std::span<cplx> data, bool inverse);

/// General-length DFT via radix-2 or Bluestein; output may not alias
/// input.  Unscaled inverse, like fft_pow2_inplace.
void fft(std::span<const cplx> in, std::span<cplx> out, bool inverse);

/// Convenience: forward transform returning a fresh vector.
[[nodiscard]] std::vector<cplx> fft_forward(std::span<const cplx> in);
/// Inverse transform including the 1/N normalization.
[[nodiscard]] std::vector<cplx> fft_inverse_scaled(std::span<const cplx> in);

/// Real-input transform: returns the full complex spectrum of length n.
[[nodiscard]] std::vector<cplx> fft_real(std::span<const double> in);

/// 2D transform over row-major data (rows x cols), rows then columns.
void fft_2d(std::span<cplx> data, std::size_t rows, std::size_t cols,
            bool inverse);

}  // namespace pvc::kernels
