// Kernel-equivalence suite (`ctest -L kernels`): the blocked/packed GEMM,
// the im2row conv paths, the sparse spike kernels, and the arena are all
// checked against the retained naive kernels (and double-precision
// references) across a geometry matrix of odd sizes, strides, pads, and
// k=1 cases. Also pins the determinism contract: conv2d_backward gradients
// are bitwise identical at 1 and 4 threads.
#include "src/tensor/gemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/tensor/arena.h"
#include "src/tensor/ops.h"
#include "src/tensor/random.h"
#include "src/util/parallel.h"

namespace ullsnn {
namespace {

// Force sizes past the naive-fallback cutoff so the blocked path actually
// runs, and cover edge tiles (sizes not multiples of MR/NR/KC).
struct GemmCase {
  std::int64_t m, k, n;
};

class BlockedGemmTest : public ::testing::TestWithParam<GemmCase> {};

TEST_P(BlockedGemmTest, MatchesNaiveAllVariants) {
  const auto [m, k, n] = GetParam();
  Rng rng(11);
  Tensor a({m, k});
  Tensor b({k, n});
  uniform_fill(a, -1.0F, 1.0F, rng);
  uniform_fill(b, -1.0F, 1.0F, rng);
  Tensor expected({m, n});
  matmul_naive(a.data(), b.data(), expected.data(), m, k, n);

  Tensor c({m, n});
  gemm(row_major(a.data(), k), row_major(b.data(), n), c.data(), m, k, n,
       /*accumulate=*/false);
  EXPECT_TRUE(c.allclose(expected, 1e-4F)) << m << "x" << k << "x" << n;

  // Transposed A through the strided view.
  Tensor a_t({k, m});
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t kk = 0; kk < k; ++kk) a_t.at(kk, i) = a.at(i, kk);
  }
  Tensor c_at({m, n});
  gemm(transposed(a_t.data(), m), row_major(b.data(), n), c_at.data(), m, k, n,
       /*accumulate=*/false);
  EXPECT_TRUE(c_at.allclose(expected, 1e-4F));

  // Transposed B through the strided view (packing's strided branch).
  Tensor b_t({n, k});
  for (std::int64_t kk = 0; kk < k; ++kk) {
    for (std::int64_t j = 0; j < n; ++j) b_t.at(j, kk) = b.at(kk, j);
  }
  Tensor c_bt({m, n});
  gemm(row_major(a.data(), k), transposed(b_t.data(), k), c_bt.data(), m, k, n,
       /*accumulate=*/false);
  EXPECT_TRUE(c_bt.allclose(expected, 1e-4F));

  // accumulate=true adds on top of existing C.
  Tensor c2 = c;
  gemm(row_major(a.data(), k), row_major(b.data(), n), c2.data(), m, k, n,
       /*accumulate=*/true);
  Tensor doubled = expected * 2.0F;
  EXPECT_TRUE(c2.allclose(doubled, 2e-4F));
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, BlockedGemmTest,
    ::testing::Values(GemmCase{64, 64, 64},      // all full tiles
                      GemmCase{37, 41, 43},      // all-odd edge tiles
                      GemmCase{6, 256, 32},      // exactly one MR x NR column
                      GemmCase{97, 257, 129},    // straddles MC/KC/NC blocks
                      GemmCase{1, 300, 33},      // single-row A
                      GemmCase{128, 1, 64},      // k=1 (degenerate K loop)
                      GemmCase{200, 64, 9}));    // ragged, narrow N

TEST(BlockedGemmTest, PackedBReuseAcrossCalls) {
  Rng rng(12);
  const std::int64_t m = 48, k = 96, n = 64;
  Tensor a1({m, k}), a2({m, k}), b({k, n});
  uniform_fill(a1, -1.0F, 1.0F, rng);
  uniform_fill(a2, -1.0F, 1.0F, rng);
  uniform_fill(b, -1.0F, 1.0F, rng);
  Arena& arena = thread_arena();
  ArenaScope scope(arena);
  PackedB packed;
  packed.pack(row_major(b.data(), n), k, n, arena);
  Tensor c1({m, n}), c2({m, n}), e1({m, n}), e2({m, n});
  gemm_packed(row_major(a1.data(), k), packed, c1.data(), m, false);
  gemm_packed(row_major(a2.data(), k), packed, c2.data(), m, false);
  matmul_naive(a1.data(), b.data(), e1.data(), m, k, n);
  matmul_naive(a2.data(), b.data(), e2.data(), m, k, n);
  EXPECT_TRUE(c1.allclose(e1, 1e-4F));
  EXPECT_TRUE(c2.allclose(e2, 1e-4F));
}

TEST(RoutedMatmulTest, LargeShapesTakeBlockedPathAndMatch) {
  // Above the cutoff the public matmul routes to the blocked kernel; the
  // result must still match the naive kernel within float tolerance.
  Rng rng(13);
  const std::int64_t m = 65, k = 70, n = 75;
  Tensor a({m, k}), b({k, n});
  uniform_fill(a, -1.0F, 1.0F, rng);
  uniform_fill(b, -1.0F, 1.0F, rng);
  Tensor blocked({m, n}), naive({m, n});
  matmul(a.data(), b.data(), blocked.data(), m, k, n);
  matmul_naive(a.data(), b.data(), naive.data(), m, k, n);
  EXPECT_TRUE(blocked.allclose(naive, 1e-4F));
}

// ---- sparse spike GEMM ----

Tensor spike_matrix(std::int64_t m, std::int64_t k, float density, Rng& rng) {
  Tensor a({m, k});
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    if (rng.uniform(0.0F, 1.0F) < density) a[i] = 1.0F;
  }
  return a;
}

/// fp32 operand of a fresh weight, as a layer builds it on its first forward.
WeightOperand fp32_operand(const Tensor& weight) {
  WeightOperand operand;
  operand.refresh(weight, /*version=*/0, /*int8=*/false);
  return operand;
}

TEST(SpmmTest, MatchesDenseAndCountsNonzeros) {
  Rng rng(14);
  const std::int64_t m = 33, k = 127, n = 41;
  for (const float density : {0.0F, 0.02F, 0.1F, 0.5F}) {
    const Tensor a = spike_matrix(m, k, density, rng);
    Tensor b({k, n});
    uniform_fill(b, -1.0F, 1.0F, rng);
    Tensor expected({m, n});
    matmul_naive(a.data(), b.data(), expected.data(), m, k, n);
    Tensor c({m, n});
    const std::int64_t nnz =
        spmm_row_compressed(a.data(), b.data(), c.data(), m, k, n, false);
    EXPECT_TRUE(c.allclose(expected, 1e-4F)) << "density " << density;
    EXPECT_EQ(nnz, a.count([](float v) { return v != 0.0F; }));
  }
}

TEST(SpmmTest, AccumulateAddsIntoC) {
  Rng rng(15);
  const std::int64_t m = 8, k = 16, n = 8;
  const Tensor a = spike_matrix(m, k, 0.2F, rng);
  Tensor b({k, n});
  uniform_fill(b, -1.0F, 1.0F, rng);
  Tensor c({m, n}, 1.0F);
  spmm_row_compressed(a.data(), b.data(), c.data(), m, k, n, /*accumulate=*/true);
  Tensor expected({m, n}, 1.0F);
  matmul_naive(a.data(), b.data(), expected.data(), m, k, n, /*accumulate=*/true);
  EXPECT_TRUE(c.allclose(expected, 1e-5F));
}

// ---- spiking dispatch entry points ----

struct SpikeConvCase {
  std::int64_t batch, cin, cout, size, kernel, stride, pad;
  float density;
};

class SpikingConvKernelTest : public ::testing::TestWithParam<SpikeConvCase> {};

TEST_P(SpikingConvKernelTest, SparseAndDenseDispatchAgree) {
  const SpikeConvCase& cc = GetParam();
  Conv2dSpec spec{cc.cin, cc.cout, cc.kernel, cc.stride, cc.pad};
  Rng rng(16);
  Tensor input = spike_matrix(cc.batch, cc.cin * cc.size * cc.size, cc.density, rng)
                     .reshape({cc.batch, cc.cin, cc.size, cc.size});
  Tensor weight({cc.cout, cc.cin, cc.kernel, cc.kernel});
  uniform_fill(weight, -0.5F, 0.5F, rng);
  const std::int64_t o = spec.out_extent(cc.size);

  Tensor expected({cc.batch, cc.cout, o, o});
  conv2d_forward(input, weight, Tensor(), expected, spec);

  // Force the sparse kernel (threshold 1.1 > any density) and the dense
  // kernel (threshold -1) — both must match the reference conv.
  for (const float threshold : {1.1F, -1.0F}) {
    Tensor out({cc.batch, cc.cout, o, o});
    SpikeKernelStats stats;
    conv2d_forward_spiking(input, weight, out, spec, threshold,
                           fp32_operand(weight), stats);
    EXPECT_TRUE(out.allclose(expected, 1e-4F))
        << "threshold " << threshold << " geom " << cc.size << "/" << cc.kernel
        << "/" << cc.stride << "/" << cc.pad;
    EXPECT_EQ(stats.nonzeros, input.count([](float v) { return v != 0.0F; }));
    EXPECT_EQ(stats.elements, input.numel());
    EXPECT_EQ(stats.sparse_samples + stats.dense_samples, cc.batch);
    if (threshold > 1.0F) {
      EXPECT_EQ(stats.sparse_samples, cc.batch);
    } else {
      EXPECT_EQ(stats.dense_samples, cc.batch);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, SpikingConvKernelTest,
    ::testing::Values(SpikeConvCase{2, 3, 4, 8, 3, 1, 1, 0.1F},
                      SpikeConvCase{1, 2, 3, 7, 3, 2, 1, 0.3F},   // odd + stride
                      SpikeConvCase{2, 4, 2, 5, 1, 1, 0, 0.05F},  // 1x1 kernel
                      SpikeConvCase{1, 2, 2, 9, 5, 2, 2, 0.2F},   // big kernel
                      SpikeConvCase{1, 1, 1, 4, 3, 1, 0, 0.5F},   // no pad
                      SpikeConvCase{2, 2, 5, 6, 3, 3, 0, 0.1F})); // stride 3

TEST(SpikingConvKernelTest, AllZeroInputGivesZeroOutput) {
  Conv2dSpec spec{2, 3, 3, 1, 1};
  Tensor input({2, 2, 6, 6});
  Tensor weight({3, 2, 3, 3});
  Rng rng(17);
  uniform_fill(weight, -0.5F, 0.5F, rng);
  Tensor out({2, 3, 6, 6}, 7.0F);  // pre-filled: must be overwritten
  SpikeKernelStats stats;
  conv2d_forward_spiking(input, weight, out, spec, 0.1F, fp32_operand(weight), stats);
  EXPECT_FLOAT_EQ(out.rms(), 0.0F);
  EXPECT_EQ(stats.nonzeros, 0);
  EXPECT_EQ(stats.sparse_samples, 2);
}

TEST(SpikingLinearKernelTest, SparseAndDenseDispatchAgree) {
  Rng rng(18);
  const std::int64_t batch = 5, in = 130, out_f = 37;
  Tensor weight({out_f, in});
  uniform_fill(weight, -0.5F, 0.5F, rng);
  for (const float density : {0.02F, 0.4F}) {
    const Tensor input = spike_matrix(batch, in, density, rng);
    Tensor expected({batch, out_f});
    matmul_bt_naive(input.data(), weight.data(), expected.data(), batch, in, out_f);
    for (const float threshold : {1.1F, -1.0F}) {
      Tensor out({batch, out_f});
      SpikeKernelStats stats;
      linear_forward_spiking(input, weight, out, threshold, fp32_operand(weight),
                             stats);
      EXPECT_TRUE(out.allclose(expected, 1e-4F))
          << "density " << density << " threshold " << threshold;
      EXPECT_EQ(stats.nonzeros, input.count([](float v) { return v != 0.0F; }));
      EXPECT_EQ(stats.elements, input.numel());
    }
  }
}

TEST(SpikingLinearKernelTest, WtCacheSurvivesRepeatCallsAndStatsAccumulate) {
  Rng rng(19);
  const std::int64_t batch = 3, in = 64, out_f = 16;
  Tensor weight({out_f, in});
  uniform_fill(weight, -0.5F, 0.5F, rng);
  const Tensor input = spike_matrix(batch, in, 0.05F, rng);
  Tensor expected({batch, out_f});
  matmul_bt_naive(input.data(), weight.data(), expected.data(), batch, in, out_f);
  const WeightOperand operand = fp32_operand(weight);
  SpikeKernelStats stats;
  for (int t = 0; t < 3; ++t) {
    Tensor out({batch, out_f});
    linear_forward_spiking(input, weight, out, 1.0F, operand, stats);
    EXPECT_TRUE(out.allclose(expected, 1e-4F)) << "step " << t;
  }
  EXPECT_EQ(stats.elements, 3 * batch * in);
  EXPECT_EQ(stats.nonzeros, 3 * input.count([](float v) { return v != 0.0F; }));
}

// ---- im2row / row2im ----

TEST(Im2rowTest, AgreesWithIm2colTransposed) {
  Conv2dSpec spec{2, 1, 3, 2, 1};
  const std::int64_t h = 7, w = 5;
  Rng rng(20);
  Tensor img({1, 2, h, w});
  uniform_fill(img, -1.0F, 1.0F, rng);
  const std::int64_t oh = spec.out_extent(h), ow = spec.out_extent(w);
  const std::int64_t patch = 2 * 3 * 3;
  std::vector<float> cols(static_cast<std::size_t>(patch * oh * ow));
  std::vector<float> rows(static_cast<std::size_t>(oh * ow * patch));
  im2col(img.data(), cols.data(), 2, h, w, spec);
  im2row(img.data(), rows.data(), 2, h, w, spec);
  for (std::int64_t p = 0; p < patch; ++p) {
    for (std::int64_t px = 0; px < oh * ow; ++px) {
      EXPECT_FLOAT_EQ(rows[static_cast<std::size_t>(px * patch + p)],
                      cols[static_cast<std::size_t>(p * oh * ow + px)]);
    }
  }
  // row2im must invert like col2im does.
  Tensor back_rows({1, 2, h, w});
  Tensor back_cols({1, 2, h, w});
  row2im(rows.data(), back_rows.data(), 2, h, w, spec);
  col2im(cols.data(), back_cols.data(), 2, h, w, spec);
  EXPECT_TRUE(back_rows.allclose(back_cols, 1e-6F));
}

// ---- determinism ----

class ThreadGuard {
 public:
  ~ThreadGuard() { set_num_threads(1); }
};

TEST(DeterminismTest, ConvBackwardBitwiseIdentical1v4Threads) {
  ThreadGuard guard;
  Rng rng(21);
  Conv2dSpec spec{3, 8, 3, 1, 1};
  Tensor input({6, 3, 12, 12});
  Tensor weight({8, 3, 3, 3});
  Tensor grad_output({6, 8, 12, 12});
  uniform_fill(input, -1.0F, 1.0F, rng);
  uniform_fill(weight, -0.5F, 0.5F, rng);
  uniform_fill(grad_output, -1.0F, 1.0F, rng);
  Tensor bias_grad1({8}), bias_grad4({8});

  set_num_threads(1);
  Tensor gi1(input.shape()), gw1(weight.shape());
  conv2d_backward(input, weight, grad_output, &gi1, gw1, &bias_grad1, spec);

  set_num_threads(4);
  Tensor gi4(input.shape()), gw4(weight.shape());
  conv2d_backward(input, weight, grad_output, &gi4, gw4, &bias_grad4, spec);

  // Bitwise, not approximate: fixed-order per-sample reduction.
  for (std::int64_t i = 0; i < gw1.numel(); ++i) EXPECT_EQ(gw1[i], gw4[i]) << i;
  for (std::int64_t i = 0; i < gi1.numel(); ++i) EXPECT_EQ(gi1[i], gi4[i]) << i;
  for (std::int64_t i = 0; i < 8; ++i) EXPECT_EQ(bias_grad1[i], bias_grad4[i]);
}

TEST(DeterminismTest, SpikingConvBitwiseIdentical1v4Threads) {
  ThreadGuard guard;
  Rng rng(22);
  Conv2dSpec spec{2, 4, 3, 1, 1};
  Tensor input = spike_matrix(6, 2 * 10 * 10, 0.05F, rng).reshape({6, 2, 10, 10});
  Tensor weight({4, 2, 3, 3});
  uniform_fill(weight, -0.5F, 0.5F, rng);

  set_num_threads(1);
  Tensor out1({6, 4, 10, 10});
  SpikeKernelStats stats1;
  conv2d_forward_spiking(input, weight, out1, spec, 0.1F, fp32_operand(weight), stats1);

  set_num_threads(4);
  Tensor out4({6, 4, 10, 10});
  SpikeKernelStats stats4;
  conv2d_forward_spiking(input, weight, out4, spec, 0.1F, fp32_operand(weight), stats4);

  for (std::int64_t i = 0; i < out1.numel(); ++i) EXPECT_EQ(out1[i], out4[i]) << i;
  EXPECT_EQ(stats1.nonzeros, stats4.nonzeros);
  EXPECT_EQ(stats1.sparse_samples, stats4.sparse_samples);
}

// ---- arena ----

TEST(ArenaTest, PointersStableAcrossGrowth) {
  Arena arena;
  float* first = arena.alloc_floats(100);
  first[0] = 42.0F;
  first[99] = 7.0F;
  // Demand far beyond the first chunk: growth must not move live data.
  for (int i = 0; i < 64; ++i) {
    float* p = arena.alloc_floats(1 << 16);
    p[0] = static_cast<float>(i);
  }
  EXPECT_FLOAT_EQ(first[0], 42.0F);
  EXPECT_FLOAT_EQ(first[99], 7.0F);
}

TEST(ArenaTest, ScopeRestoresWatermark) {
  Arena arena;
  arena.alloc_floats(64);
  const std::size_t before = arena.capacity_bytes();
  float* outer = arena.alloc_floats(16);
  outer[0] = 1.0F;
  {
    ArenaScope scope(arena);
    float* inner = arena.alloc_floats(1 << 14);
    inner[0] = 2.0F;
  }
  // After scope exit the next allocation reuses the released space; the
  // pre-scope allocation is untouched.
  float* again = arena.alloc_floats(1 << 14);
  EXPECT_FLOAT_EQ(outer[0], 1.0F);
  again[0] = 3.0F;
  (void)before;
}

TEST(ArenaTest, AlignmentIs64Bytes) {
  Arena arena;
  for (const std::size_t count : {1UL, 3UL, 17UL, 1000UL}) {
    auto p = reinterpret_cast<std::uintptr_t>(arena.alloc_floats(count));
    EXPECT_EQ(p % 64, 0U) << count;
    auto q = reinterpret_cast<std::uintptr_t>(arena.alloc_indices(count));
    EXPECT_EQ(q % 64, 0U) << count;
  }
}

TEST(ArenaTest, ZeroedAllocationIsZero) {
  Arena arena;
  float* dirty = arena.alloc_floats(256);
  for (int i = 0; i < 256; ++i) dirty[i] = 1.0F;
  arena.reset();
  const float* z = arena.alloc_floats_zeroed(256);
  for (int i = 0; i < 256; ++i) EXPECT_FLOAT_EQ(z[i], 0.0F);
}

// ---- pool geometry validation ----

TEST(PoolGeometryTest, ExactTilingAccepted) {
  EXPECT_NO_THROW(validate_pool_geometry(Pool2dSpec{2, 2}, 8, 8));
  EXPECT_NO_THROW(validate_pool_geometry(Pool2dSpec{3, 2}, 7, 7));
  EXPECT_NO_THROW(validate_pool_geometry(Pool2dSpec{2, 2}, 2, 2));
}

TEST(PoolGeometryTest, TruncatingGeometryRejected) {
  EXPECT_THROW(validate_pool_geometry(Pool2dSpec{2, 2}, 7, 8), std::invalid_argument);
  EXPECT_THROW(validate_pool_geometry(Pool2dSpec{2, 2}, 8, 7), std::invalid_argument);
  EXPECT_THROW(validate_pool_geometry(Pool2dSpec{3, 2}, 8, 8), std::invalid_argument);
  EXPECT_THROW(validate_pool_geometry(Pool2dSpec{4, 2}, 3, 3), std::invalid_argument);
}

}  // namespace
}  // namespace ullsnn
