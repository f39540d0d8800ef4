#pragma once
// Host-executed multi-precision GEMM.
//
// Functional, cache-blocked C = alpha*A*B + beta*C for every precision in
// Table II: FP64, FP32, and the narrow types (FP16/BF16/TF32 inputs with
// FP32 accumulation, I8 inputs with I32 accumulation — the way XMX and
// tensor cores accumulate).  Row-major storage.  Only tests call it; the
// benches price the paper's oneMKL GEMM with micro::gemm_kernel_desc.

#include <cstdint>
#include <span>

#include "kernels/narrow_float.hpp"

namespace pvc::kernels {

/// Dense row-major GEMM: C[m x n] = alpha * A[m x k] * B[k x n] + beta * C.
void gemm(std::size_t m, std::size_t n, std::size_t k, double alpha,
          std::span<const double> a, std::span<const double> b, double beta,
          std::span<double> c);
void gemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
          std::span<const float> a, std::span<const float> b, float beta,
          std::span<float> c);

/// Narrow-input GEMMs with wide accumulation, C = A*B (alpha=1, beta=0).
void gemm_fp16(std::size_t m, std::size_t n, std::size_t k,
               std::span<const half_t> a, std::span<const half_t> b,
               std::span<float> c);
void gemm_bf16(std::size_t m, std::size_t n, std::size_t k,
               std::span<const bfloat16_t> a, std::span<const bfloat16_t> b,
               std::span<float> c);
void gemm_tf32(std::size_t m, std::size_t n, std::size_t k,
               std::span<const tf32_t> a, std::span<const tf32_t> b,
               std::span<float> c);
void gemm_i8(std::size_t m, std::size_t n, std::size_t k,
             std::span<const std::int8_t> a, std::span<const std::int8_t> b,
             std::span<std::int32_t> c);

}  // namespace pvc::kernels
