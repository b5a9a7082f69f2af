// The pylspack-style (1, m, 1) streaming scheme the paper contrasts against.
#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "sketch/baselines.hpp"
#include "sketch/sketch.hpp"
#include "sparse/convert.hpp"
#include "sparse/generate.hpp"

namespace rsketch {
namespace {

template <typename T>
void expect_bitwise_equal(const DenseMatrix<T>& x, const DenseMatrix<T>& y) {
  ASSERT_EQ(x.rows(), y.rows());
  ASSERT_EQ(x.cols(), y.cols());
  for (index_t k = 0; k < x.cols(); ++k) {
    EXPECT_EQ(std::memcmp(x.col(k), y.col(k),
                          static_cast<std::size_t>(x.rows()) * sizeof(T)),
              0)
        << "column " << k;
  }
}

class StreamingDists : public ::testing::TestWithParam<Dist> {};

TEST_P(StreamingDists, MatchesBlockedKernel) {
  const auto a = random_sparse<double>(100, 35, 0.12, 1);
  SketchConfig cfg;
  cfg.d = 30;
  cfg.block_d = 30;
  cfg.dist = GetParam();
  DenseMatrix<double> blocked;
  sketch_into(cfg, a, blocked);
  DenseMatrix<double> streamed;
  baseline_streaming(cfg, csc_to_csr(a), streamed);
  EXPECT_EQ(blocked.max_abs_diff(streamed), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllDists, StreamingDists,
                         ::testing::Values(Dist::PmOne, Dist::Uniform,
                                           Dist::UniformScaled,
                                           Dist::Gaussian),
                         [](const ::testing::TestParamInfo<Dist>& info) {
                           std::string n = to_string(info.param);
                           for (char& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return n;
                         });

std::string stream_name(const std::tuple<Dist, RngBackend>& p) {
  const char* dist[] = {"pm1", "uniform", "scaled", "gaussian", "junk"};
  const char* backend[] = {"xoshiro", "xoshiro_x8", "philox"};
  return std::string(dist[static_cast<int>(std::get<0>(p))]) + "_" +
         backend[static_cast<int>(std::get<1>(p))];
}

// Every (dist, backend) pair in float, with b_d not dividing d and the
// post-scale on: the baseline's Â is bitwise both blocked kernels'.
class StreamingBitwise
    : public ::testing::TestWithParam<std::tuple<Dist, RngBackend>> {};

TEST_P(StreamingBitwise, MatchesBothKernelsInFloat) {
  const auto [dist, backend] = GetParam();
  const auto a = random_sparse<float>(90, 33, 0.1, 6);
  SketchConfig cfg;
  cfg.d = 37;
  cfg.block_d = 16;
  cfg.block_n = 8;
  cfg.dist = dist;
  cfg.backend = backend;
  cfg.normalize = true;
  DenseMatrix<float> streamed;
  baseline_streaming(cfg, csc_to_csr(a), streamed);
  for (const KernelVariant k : {KernelVariant::Kji, KernelVariant::Jki}) {
    SCOPED_TRACE(to_string(k));
    cfg.kernel = k;
    DenseMatrix<float> blocked;
    sketch_into(cfg, a, blocked);
    expect_bitwise_equal(blocked, streamed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryStream, StreamingBitwise,
    ::testing::Combine(::testing::Values(Dist::PmOne, Dist::Uniform,
                                         Dist::UniformScaled, Dist::Gaussian,
                                         Dist::Junk),
                       ::testing::Values(RngBackend::Xoshiro,
                                         RngBackend::XoshiroBatch,
                                         RngBackend::Philox)),
    [](const auto& info) { return stream_name(info.param); });

TEST(Streaming, SkipsEmptyRows) {
  // Only nonempty rows of A trigger generation of a column of S.
  const auto a = abnormal_a<double>(80, 12, 8, 2);  // 10 dense rows
  SketchConfig cfg;
  cfg.d = 24;
  cfg.block_d = 24;
  DenseMatrix<double> out;
  EXPECT_EQ(baseline_streaming(cfg, csc_to_csr(a), out), 24u * 10u);
}

TEST(Streaming, SampleCountIsMinimal) {
  // (1, m, 1)-blocking generates at most d×(nonempty rows) — the memory-
  // optimal count, at the cost of touching all of Â per row.
  const auto a = random_sparse<double>(200, 50, 0.1, 3);
  SketchConfig cfg;
  cfg.d = 40;
  cfg.block_d = 40;
  DenseMatrix<double> out;
  const std::uint64_t samples = baseline_streaming(cfg, csc_to_csr(a), out);
  EXPECT_LE(samples, 40u * 200u);

  // Algorithm 3 on the same problem generates d per NONZERO: strictly more.
  EXPECT_LT(samples,
            static_cast<std::uint64_t>(40) *
                static_cast<std::uint64_t>(a.nnz()));
}

TEST(Streaming, SampleCountIsIndependentOfBlockD) {
  // b_d only chunks the fill of S[:, j]: d samples per nonempty row either way.
  const auto a = csc_to_csr(abnormal_a<double>(80, 12, 8, 2));  // 10 dense rows
  SketchConfig cfg;
  cfg.d = 30;
  DenseMatrix<double> out;
  for (const index_t bd : {1, 7, 30, 3000}) {
    cfg.block_d = bd;
    EXPECT_EQ(baseline_streaming(cfg, a, out), 30u * 10u) << "b_d = " << bd;
  }
}

TEST(Streaming, ReusedOutputIsZeroedFirst) {
  // An output already of shape d × n is overwritten, not accumulated into.
  const auto a = csc_to_csr(random_sparse<double>(70, 20, 0.15, 7));
  SketchConfig cfg;
  cfg.d = 12;
  DenseMatrix<double> fresh;
  baseline_streaming(cfg, a, fresh);
  DenseMatrix<double> reused(cfg.d, a.cols());
  for (index_t k = 0; k < reused.cols(); ++k) {
    for (index_t i = 0; i < reused.rows(); ++i) reused(i, k) = 99.5;
  }
  baseline_streaming(cfg, a, reused);
  expect_bitwise_equal(fresh, reused);
}

TEST(Streaming, MismatchedOutputIsResized) {
  const auto a = csc_to_csr(random_sparse<double>(70, 20, 0.15, 8));
  SketchConfig cfg;
  cfg.d = 12;
  DenseMatrix<double> fresh;
  baseline_streaming(cfg, a, fresh);
  DenseMatrix<double> wrong(5, 3);
  wrong(0, 0) = 1.0;
  baseline_streaming(cfg, a, wrong);
  EXPECT_EQ(wrong.rows(), cfg.d);
  EXPECT_EQ(wrong.cols(), a.cols());
  expect_bitwise_equal(fresh, wrong);
}

TEST(Streaming, InvalidConfigThrows) {
  const auto a = csc_to_csr(random_sparse<double>(20, 10, 0.3, 9));
  SketchConfig cfg;
  cfg.d = 8;
  cfg.block_d = 0;
  DenseMatrix<double> out;
  EXPECT_THROW(baseline_streaming(cfg, a, out), invalid_argument_error);
  cfg.block_d = 4;
  cfg.d = -1;
  EXPECT_THROW(baseline_streaming(cfg, a, out), invalid_argument_error);
}

TEST(Streaming, EmptyMatrix) {
  CsrMatrix<double> a(50, 0);
  SketchConfig cfg;
  cfg.d = 8;
  DenseMatrix<double> out;
  EXPECT_EQ(baseline_streaming(cfg, a, out), 0u);
  EXPECT_EQ(out.cols(), 0);
}

}  // namespace
}  // namespace rsketch
