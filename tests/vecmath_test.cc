// Tests for the vectorized scoring-kernel library: every kernel against a
// naive scalar reference across dimensions around the unroll width, plus the
// bit-exact agreement contract between the generic and native dispatch
// paths.

#include "util/vecmath.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "util/aligned.h"
#include "util/rng.h"

namespace kgc {
namespace {

// Dimensions probing the reduction unroll: 1, kReduceLanes +/- 1, the lane
// count itself, a multiple, and a non-multiple well past it.
const size_t kDims[] = {1, vec::kReduceLanes - 1, vec::kReduceLanes,
                        vec::kReduceLanes + 1, 32, 100};

std::vector<float> RandomVector(Rng& rng, size_t n, double lo = -2.0,
                                double hi = 2.0) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.UniformDouble(lo, hi));
  return v;
}

// --- Scalar references ------------------------------------------------------

double RefDot(const float* a, const float* b, size_t n) {
  double s = 0.0;
  for (size_t j = 0; j < n; ++j) {
    s += static_cast<double>(a[j]) * static_cast<double>(b[j]);
  }
  return s;
}

double RefSum(const float* a, size_t n) {
  double s = 0.0;
  for (size_t j = 0; j < n; ++j) s += static_cast<double>(a[j]);
  return s;
}

double RefL1(const float* q, const float* row, size_t n) {
  double s = 0.0;
  for (size_t j = 0; j < n; ++j) {
    s += std::abs(static_cast<double>(q[j]) - static_cast<double>(row[j]));
  }
  return s;
}

double RefL2(const float* q, const float* row, size_t n) {
  double s = 0.0;
  for (size_t j = 0; j < n; ++j) {
    const double d = static_cast<double>(q[j]) - static_cast<double>(row[j]);
    s += d * d;
  }
  return std::sqrt(s);
}

float RefClip(float g) { return g > 5.0f ? 5.0f : (g < -5.0f ? -5.0f : g); }

// Reductions accumulate in double with a fixed lane order that differs from
// the reference's serial order, so compare with a tolerance scaled to the
// magnitude; element-wise kernels are compared bit-exactly elsewhere.
void ExpectClose(double expected, double actual) {
  EXPECT_NEAR(expected, actual, 1e-9 * (1.0 + std::abs(expected)));
}

void ExpectClose(double expected, float actual) {
  EXPECT_NEAR(expected, static_cast<double>(actual),
              1e-4 * (1.0 + std::abs(expected)));
}

// --- Kernels vs reference ---------------------------------------------------

TEST(VecMathTest, DotAndSumMatchReference) {
  Rng rng(1);
  const auto& ops = vec::Ops();
  for (size_t n : kDims) {
    const auto a = RandomVector(rng, n);
    const auto b = RandomVector(rng, n);
    ExpectClose(RefDot(a.data(), b.data(), n), ops.dot(a.data(), b.data(), n));
    ExpectClose(RefSum(a.data(), n), ops.sum(a.data(), n));
  }
}

TEST(VecMathTest, AxpyAndScaleAreBitExact) {
  Rng rng(2);
  const auto& ops = vec::Ops();
  for (size_t n : kDims) {
    const auto x = RandomVector(rng, n);
    const auto y0 = RandomVector(rng, n);
    const float alpha = 0.37f;
    std::vector<float> y = y0;
    ops.axpy(alpha, x.data(), y.data(), n);
    for (size_t j = 0; j < n; ++j) EXPECT_EQ(y[j], y0[j] + alpha * x[j]);
    std::vector<float> z = y0;
    ops.scale(z.data(), n, 1.5f);
    for (size_t j = 0; j < n; ++j) EXPECT_EQ(z[j], y0[j] * 1.5f);
  }
}

TEST(VecMathTest, RowSweepsMatchReference) {
  Rng rng(3);
  const auto& ops = vec::Ops();
  for (size_t dim : kDims) {
    const size_t num_rows = 7;
    const size_t stride = dim + 3;  // rows wider than dim: stride respected
    const auto q = RandomVector(rng, dim);
    const auto rows = RandomVector(rng, num_rows * stride);
    std::vector<float> out(num_rows);

    ops.dot_rows(q.data(), rows.data(), num_rows, stride, dim, out.data());
    for (size_t i = 0; i < num_rows; ++i) {
      ExpectClose(RefDot(q.data(), rows.data() + i * stride, dim), out[i]);
    }
    ops.l1_rows(q.data(), rows.data(), num_rows, stride, dim, out.data());
    for (size_t i = 0; i < num_rows; ++i) {
      ExpectClose(RefL1(q.data(), rows.data() + i * stride, dim), out[i]);
    }
    ops.l2_rows(q.data(), rows.data(), num_rows, stride, dim, out.data());
    for (size_t i = 0; i < num_rows; ++i) {
      ExpectClose(RefL2(q.data(), rows.data() + i * stride, dim), out[i]);
    }
  }
}

TEST(VecMathTest, RowwiseDotMatchesReference) {
  Rng rng(4);
  const auto& ops = vec::Ops();
  for (size_t dim : kDims) {
    const size_t num_rows = 5;
    const size_t a_stride = dim + 1;
    const size_t b_stride = dim + 2;
    const auto a = RandomVector(rng, num_rows * a_stride);
    const auto b = RandomVector(rng, num_rows * b_stride);
    std::vector<float> out(num_rows);
    ops.rowwise_dot(a.data(), a_stride, b.data(), b_stride, num_rows, dim,
                    out.data());
    for (size_t i = 0; i < num_rows; ++i) {
      ExpectClose(
          RefDot(a.data() + i * a_stride, b.data() + i * b_stride, dim),
          out[i]);
    }
  }
}

TEST(VecMathTest, OffsetRowSweepsMatchReference) {
  Rng rng(5);
  const auto& ops = vec::Ops();
  for (size_t dim : kDims) {
    const size_t num_rows = 6;
    const auto q = RandomVector(rng, dim);
    const auto v = RandomVector(rng, dim);
    const auto coef = RandomVector(rng, num_rows);
    const auto rows = RandomVector(rng, num_rows * dim);
    for (float coef_scale : {1.0f, -1.0f}) {
      std::vector<float> out(num_rows);
      ops.l1_offset_rows(q.data(), v.data(), coef.data(), coef_scale,
                         rows.data(), num_rows, dim, dim, out.data());
      for (size_t i = 0; i < num_rows; ++i) {
        double s = 0.0;
        for (size_t j = 0; j < dim; ++j) {
          s += std::abs(static_cast<double>(q[j]) +
                        static_cast<double>(coef_scale) * coef[i] * v[j] -
                        rows[i * dim + j]);
        }
        ExpectClose(s, out[i]);
      }
      ops.l2_offset_rows(q.data(), v.data(), coef.data(), coef_scale,
                         rows.data(), num_rows, dim, dim, out.data());
      for (size_t i = 0; i < num_rows; ++i) {
        double s = 0.0;
        for (size_t j = 0; j < dim; ++j) {
          const double d = static_cast<double>(q[j]) +
                           static_cast<double>(coef_scale) * coef[i] * v[j] -
                           rows[i * dim + j];
          s += d * d;
        }
        ExpectClose(std::sqrt(s), out[i]);
      }
    }
  }
}

TEST(VecMathTest, CabsRowsMatchesReference) {
  Rng rng(6);
  const auto& ops = vec::Ops();
  for (size_t half : kDims) {
    const size_t num_rows = 4;
    const size_t stride = 2 * half;
    const auto q = RandomVector(rng, stride);
    const auto rows = RandomVector(rng, num_rows * stride);
    std::vector<float> out(num_rows);
    ops.cabs_rows(q.data(), rows.data(), num_rows, stride, half, out.data());
    for (size_t i = 0; i < num_rows; ++i) {
      const float* row = rows.data() + i * stride;
      double s = 0.0;
      for (size_t j = 0; j < half; ++j) {
        const double dx = static_cast<double>(q[j]) - row[j];
        const double dy = static_cast<double>(q[half + j]) - row[half + j];
        s += std::sqrt(dx * dx + dy * dy);
      }
      ExpectClose(s, out[i]);
    }
  }
}

TEST(VecMathTest, ComplexHadamardIsBitExact) {
  Rng rng(7);
  const auto& ops = vec::Ops();
  for (size_t half : kDims) {
    const auto a = RandomVector(rng, 2 * half);
    const auto b = RandomVector(rng, 2 * half);
    for (bool conj_a : {false, true}) {
      std::vector<float> out(2 * half);
      ops.complex_hadamard(a.data(), b.data(), half, conj_a, out.data());
      const float sign = conj_a ? -1.0f : 1.0f;
      for (size_t j = 0; j < half; ++j) {
        const float ar = a[j];
        const float ai = sign * a[half + j];
        EXPECT_EQ(out[j], ar * b[j] - ai * b[half + j]);
        EXPECT_EQ(out[half + j], ar * b[half + j] + ai * b[j]);
      }
    }
  }
}

TEST(VecMathTest, UpdateRowsMatchReferenceBitExactly) {
  Rng rng(8);
  const auto& ops = vec::Ops();
  const float lr = 0.05f;
  for (size_t n : kDims) {
    for (float gscale : {1.0f, -1.0f, 0.75f}) {
      const auto p0 = RandomVector(rng, n);
      // Large gradients so the ±5 clip actually fires on some elements.
      const auto g = RandomVector(rng, n, -8.0, 8.0);

      std::vector<float> p = p0;
      ops.sgd_update_row(p.data(), g.data(), gscale, n, lr);
      for (size_t j = 0; j < n; ++j) {
        EXPECT_EQ(p[j], p0[j] - lr * RefClip(gscale * g[j]));
      }

      p = p0;
      const auto acc0 = RandomVector(rng, n, 0.0, 1.0);
      std::vector<float> acc = acc0;
      ops.adagrad_update_row(p.data(), acc.data(), g.data(), gscale, n, lr);
      for (size_t j = 0; j < n; ++j) {
        const float gc = RefClip(gscale * g[j]);
        const float a = acc0[j] + gc * gc;
        EXPECT_EQ(acc[j], a);
        EXPECT_EQ(p[j], p0[j] - lr * gc / std::sqrt(a + 1e-8f));
      }
    }
  }
}

// The blocked multi-query sweeps promise the exact bits of the single-query
// kernels for every (query, row) pair — the top-K engine's and the ranker's
// equivalence with the full ranking sweep rests on it — so compare with
// EXPECT_EQ, on both dispatch paths, over dims around the reduction width
// and block sizes below, at and above the executors' query block, with
// strided queries and rows and a padded out_stride.
TEST(VecMathTest, BlockSweepsMatchSingleQueryBitExactly) {
  Rng rng(12);
  std::vector<const vec::KernelOps*> paths = {
      &vec::OpsFor(vec::KernelPath::kGeneric)};
  if (vec::NativeKernelsAvailable()) {
    paths.push_back(&vec::OpsFor(vec::KernelPath::kNative));
  }
  const size_t kBlockDims[] = {1, 7, 8, 9, 31, 32, 33, 64, 200};
  const size_t num_rows = 11;
  const size_t out_stride = num_rows + 2;
  for (const vec::KernelOps* ops : paths) {
    for (size_t dim : kBlockDims) {
      for (size_t num_q : {1, 3, 8, 17}) {
        const size_t stride = dim + 3;    // strided candidate table
        const size_t q_stride = dim + 1;  // strided query block
        const auto qs = RandomVector(rng, num_q * q_stride);
        const auto rows = RandomVector(rng, num_rows * stride);
        const auto v = RandomVector(rng, dim);
        const auto coef = RandomVector(rng, num_rows);
        std::vector<float> block(num_q * out_stride);
        std::vector<float> single(num_rows);

        const auto per_query = [&](const char* kind, size_t qs_stride,
                                   auto&& fill_single) {
          for (size_t qi = 0; qi < num_q; ++qi) {
            fill_single(qi * qs_stride);
            for (size_t i = 0; i < num_rows; ++i) {
              EXPECT_EQ(block[qi * out_stride + i], single[i])
                  << ops->name << " " << kind << " dim=" << dim
                  << " num_q=" << num_q << " q=" << qi << " row=" << i;
            }
          }
        };

        ops->dot_rows_block(qs.data(), q_stride, num_q, rows.data(),
                            num_rows, stride, dim, block.data(), out_stride);
        per_query("dot", q_stride, [&](size_t q) {
          ops->dot_rows(qs.data() + q, rows.data(), num_rows, stride, dim,
                        single.data());
        });

        ops->l1_rows_block(qs.data(), q_stride, num_q, rows.data(), num_rows,
                           stride, dim, block.data(), out_stride);
        per_query("l1", q_stride, [&](size_t q) {
          ops->l1_rows(qs.data() + q, rows.data(), num_rows, stride, dim,
                       single.data());
        });

        ops->l2_rows_block(qs.data(), q_stride, num_q, rows.data(), num_rows,
                           stride, dim, block.data(), out_stride);
        per_query("l2", q_stride, [&](size_t q) {
          ops->l2_rows(qs.data() + q, rows.data(), num_rows, stride, dim,
                       single.data());
        });

        for (float coef_scale : {1.0f, -1.0f}) {
          ops->l1_offset_rows_block(qs.data(), q_stride, num_q, v.data(),
                                    coef.data(), coef_scale, rows.data(),
                                    num_rows, stride, dim, block.data(),
                                    out_stride);
          per_query("l1_offset", q_stride, [&](size_t q) {
            ops->l1_offset_rows(qs.data() + q, v.data(), coef.data(),
                                coef_scale, rows.data(), num_rows, stride,
                                dim, single.data());
          });
          ops->l2_offset_rows_block(qs.data(), q_stride, num_q, v.data(),
                                    coef.data(), coef_scale, rows.data(),
                                    num_rows, stride, dim, block.data(),
                                    out_stride);
          per_query("l2_offset", q_stride, [&](size_t q) {
            ops->l2_offset_rows(qs.data() + q, v.data(), coef.data(),
                                coef_scale, rows.data(), num_rows, stride,
                                dim, single.data());
          });
        }

        // cabs uses the split re/im layout: dim here is half_dim and each
        // query/row occupies 2 * half_dim floats.
        const size_t half = dim;
        const size_t cq_stride = 2 * half + 1;
        const size_t cstride = 2 * half + 3;
        const auto cqs = RandomVector(rng, num_q * cq_stride);
        const auto crows = RandomVector(rng, num_rows * cstride);
        ops->cabs_rows_block(cqs.data(), cq_stride, num_q, crows.data(),
                             num_rows, cstride, half, block.data(),
                             out_stride);
        per_query("cabs", cq_stride, [&](size_t q) {
          ops->cabs_rows(cqs.data() + q, crows.data(), num_rows, cstride,
                         half, single.data());
        });
      }
    }
  }
}

// --- Dispatch paths ---------------------------------------------------------

// The generic and native TUs compile the same kernel source with
// -ffp-contract=off, so they must agree bit for bit on every kernel.
TEST(VecMathDispatchTest, GenericAndNativePathsAgreeBitExactly) {
  if (!vec::NativeKernelsAvailable()) {
    GTEST_SKIP() << "native kernel path not compiled in or unsupported CPU";
  }
  const auto& gen = vec::OpsFor(vec::KernelPath::kGeneric);
  const auto& nat = vec::OpsFor(vec::KernelPath::kNative);
  ASSERT_NE(&gen, &nat);
  EXPECT_STREQ(nat.name, "native");

  Rng rng(9);
  for (size_t dim : kDims) {
    const size_t num_rows = 9;
    const auto q = RandomVector(rng, 2 * dim);
    const auto v = RandomVector(rng, dim);
    const auto coef = RandomVector(rng, num_rows);
    const auto rows = RandomVector(rng, num_rows * 2 * dim);
    const auto g = RandomVector(rng, dim, -8.0, 8.0);

    EXPECT_EQ(gen.dot(q.data(), v.data(), dim),
              nat.dot(q.data(), v.data(), dim));
    EXPECT_EQ(gen.sum(q.data(), dim), nat.sum(q.data(), dim));

    std::vector<float> out_g(num_rows);
    std::vector<float> out_n(num_rows);
    const auto expect_rows_eq = [&] {
      for (size_t i = 0; i < num_rows; ++i) EXPECT_EQ(out_g[i], out_n[i]);
    };
    gen.dot_rows(q.data(), rows.data(), num_rows, 2 * dim, dim, out_g.data());
    nat.dot_rows(q.data(), rows.data(), num_rows, 2 * dim, dim, out_n.data());
    expect_rows_eq();
    gen.rowwise_dot(rows.data(), 2 * dim, rows.data() + dim, 2 * dim,
                    num_rows, dim, out_g.data());
    nat.rowwise_dot(rows.data(), 2 * dim, rows.data() + dim, 2 * dim,
                    num_rows, dim, out_n.data());
    expect_rows_eq();
    gen.l1_rows(q.data(), rows.data(), num_rows, 2 * dim, dim, out_g.data());
    nat.l1_rows(q.data(), rows.data(), num_rows, 2 * dim, dim, out_n.data());
    expect_rows_eq();
    gen.l2_rows(q.data(), rows.data(), num_rows, 2 * dim, dim, out_g.data());
    nat.l2_rows(q.data(), rows.data(), num_rows, 2 * dim, dim, out_n.data());
    expect_rows_eq();
    gen.l1_offset_rows(q.data(), v.data(), coef.data(), -1.0f, rows.data(),
                       num_rows, 2 * dim, dim, out_g.data());
    nat.l1_offset_rows(q.data(), v.data(), coef.data(), -1.0f, rows.data(),
                       num_rows, 2 * dim, dim, out_n.data());
    expect_rows_eq();
    gen.l2_offset_rows(q.data(), v.data(), coef.data(), 1.0f, rows.data(),
                       num_rows, 2 * dim, dim, out_g.data());
    nat.l2_offset_rows(q.data(), v.data(), coef.data(), 1.0f, rows.data(),
                       num_rows, 2 * dim, dim, out_n.data());
    expect_rows_eq();
    gen.cabs_rows(q.data(), rows.data(), num_rows, 2 * dim, dim, out_g.data());
    nat.cabs_rows(q.data(), rows.data(), num_rows, 2 * dim, dim, out_n.data());
    expect_rows_eq();

    std::vector<float> had_g(2 * dim);
    std::vector<float> had_n(2 * dim);
    gen.complex_hadamard(q.data(), rows.data(), dim, true, had_g.data());
    nat.complex_hadamard(q.data(), rows.data(), dim, true, had_n.data());
    for (size_t j = 0; j < 2 * dim; ++j) EXPECT_EQ(had_g[j], had_n[j]);

    std::vector<float> y_g(q.begin(), q.begin() + static_cast<long>(dim));
    std::vector<float> y_n = y_g;
    gen.axpy(0.37f, v.data(), y_g.data(), dim);
    nat.axpy(0.37f, v.data(), y_n.data(), dim);
    gen.scale(y_g.data(), dim, 1.5f);
    nat.scale(y_n.data(), dim, 1.5f);
    std::vector<float> acc_g(dim, 0.25f);
    std::vector<float> acc_n(dim, 0.25f);
    gen.sgd_update_row(y_g.data(), g.data(), -1.0f, dim, 0.05f);
    nat.sgd_update_row(y_n.data(), g.data(), -1.0f, dim, 0.05f);
    gen.adagrad_update_row(y_g.data(), acc_g.data(), g.data(), 1.0f, dim,
                           0.05f);
    nat.adagrad_update_row(y_n.data(), acc_n.data(), g.data(), 1.0f, dim,
                           0.05f);
    for (size_t j = 0; j < dim; ++j) {
      EXPECT_EQ(y_g[j], y_n[j]);
      EXPECT_EQ(acc_g[j], acc_n[j]);
    }
  }
}

// Native is the default wherever this CPU runs it; KGC_KERNEL=generic is
// the one way to force the baseline path.
TEST(VecMathDispatchTest, DefaultsToNativeWhenAvailable) {
  const char* env = std::getenv("KGC_KERNEL");
  const bool force_generic = env != nullptr && std::strcmp(env, "generic") == 0;
  const vec::KernelPath expected =
      !force_generic && vec::NativeKernelsAvailable()
          ? vec::KernelPath::kNative
          : vec::KernelPath::kGeneric;
  EXPECT_EQ(vec::ActiveKernelPath(), expected);
  EXPECT_EQ(&vec::Ops(), &vec::OpsFor(expected));
}

TEST(VecMathDispatchTest, OpsForFallsBackWhenNativeUnavailable) {
  const auto& gen = vec::OpsFor(vec::KernelPath::kGeneric);
  EXPECT_STREQ(gen.name, "generic");
  const auto& nat = vec::OpsFor(vec::KernelPath::kNative);
  if (!vec::NativeKernelsAvailable()) {
    EXPECT_EQ(&gen, &nat);  // silent fallback to the only compiled path
  } else {
    EXPECT_STREQ(nat.name, "native");
  }
}

// --- Scratch ----------------------------------------------------------------

TEST(VecMathScratchTest, IsAlignedPersistentAndPerSlot) {
  auto a = vec::GetScratch(17, 0);
  ASSERT_EQ(a.size(), 17u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a.data()) % kKernelAlignment, 0u);
  for (size_t j = 0; j < a.size(); ++j) a[j] = static_cast<float>(j);
  auto b = vec::GetScratch(5, 1);
  EXPECT_NE(a.data(), b.data());  // distinct slots do not alias
  for (size_t j = 0; j < b.size(); ++j) b[j] = -1.0f;
  // Slot 0 grows without losing its prefix and stays aligned.
  auto a2 = vec::GetScratch(64, 0);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a2.data()) % kKernelAlignment, 0u);
  auto a3 = vec::GetScratch(8, 0);
  for (size_t j = 0; j < a3.size(); ++j) {
    EXPECT_EQ(a3[j], static_cast<float>(j));  // shrink requests keep contents
  }
}

}  // namespace
}  // namespace kgc
