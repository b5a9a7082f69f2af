// Cross-module integration tests: full pipelines exercising I/O, both
// sketching kernels, the dense factorizations, and the least-squares
// solvers end to end.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "rng/distributions.hpp"
#include "sketch/sketch.hpp"
#include "solvers/least_squares.hpp"
#include "solvers/sap.hpp"
#include "solvers/sparse_qr.hpp"
#include "sparse/convert.hpp"
#include "sparse/generate.hpp"
#include "sparse/matrix_market.hpp"
#include "sparse/ops.hpp"
#include "support/parallel.hpp"
#include "testdata/replicas.hpp"

namespace rsketch {
namespace {

TEST(Integration, MtxRoundTripThenSketchIsInvariant) {
  // Serialize → parse → sketch must equal sketching the original.
  const auto a = random_sparse<double>(120, 40, 0.1, 1);
  std::stringstream ss;
  write_matrix_market(ss, a);
  const auto b = read_matrix_market<double>(ss);

  SketchConfig cfg;
  cfg.d = 30;
  const auto sa = sketch(cfg, a);
  const auto sb = sketch(cfg, b);
  EXPECT_LT(sa.max_abs_diff(sb), 1e-12);
}

TEST(Integration, SketchThenSolveOnReplica) {
  // The full paper pipeline on a scaled rail replica: sketch-precondition
  // solve reaches direct-method accuracy and direct/SAP agree.
  const auto a = make_ls_replica("rail582", 12);
  const auto b = make_least_squares_rhs(a, 2);

  SapOptions opt;
  opt.gamma = 2.0;
  opt.lsqr_max_iter = 2000;
  const auto sap = sap_solve(a, b, opt);
  const auto direct = sparse_qr_least_squares(a, b.data());

  EXPECT_LT(ls_error_metric(a, sap.x, b), 1e-11);
  EXPECT_LT(ls_error_metric(a, direct.x, b), 1e-11);
  for (index_t j = 0; j < a.cols(); ++j) {
    EXPECT_NEAR(sap.x[static_cast<std::size_t>(j)],
                direct.x[static_cast<std::size_t>(j)],
                1e-6 * (std::fabs(direct.x[static_cast<std::size_t>(j)]) + 1.0));
  }
}

TEST(Integration, KernelsAgreeOnEveryReplica) {
  // Alg3 and Alg4 produce the same sketch (same seed, same b_d) on all five
  // Table I replicas at an aggressive scale.
  for (const auto& info : spmm_replica_infos()) {
    const auto a = make_spmm_replica<double>(info.name, 24);
    SketchConfig cfg;
    cfg.d = spmm_replica_d(info.name, 24);
    cfg.block_d = 500;
    cfg.block_n = 100;
    const auto s3 = sketch(cfg, a);
    cfg.kernel = KernelVariant::Jki;
    const auto s4 = sketch(cfg, a);
    EXPECT_LT(s3.max_abs_diff(s4), 1e-9) << info.name;
  }
}

TEST(Integration, PhiloxSketchReproducibleAcrossEverything) {
  // Philox backend: kernel, blocking, parallel mode, and thread count all
  // leave the sketch bit-identical in exact terms — the RandBLAS contract.
  const auto a = random_sparse<double>(150, 60, 0.08, 3);
  std::vector<DenseMatrix<double>> results;
  for (const KernelVariant k : {KernelVariant::Kji, KernelVariant::Jki}) {
    for (const index_t bd : {index_t{48}, index_t{11}}) {
      for (const ParallelOver p :
           {ParallelOver::Sequential, ParallelOver::DBlocks}) {
        SketchConfig cfg;
        cfg.d = 48;
        cfg.backend = RngBackend::Philox;
        cfg.kernel = k;
        cfg.block_d = bd;
        cfg.block_n = 17;
        cfg.parallel = p;
        results.push_back(sketch(cfg, a));
      }
    }
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_LT(results[0].max_abs_diff(results[i]), 1e-10) << "config " << i;
  }
}

TEST(Integration, SketchOfRhsMatchesSketchTimesRhs) {
  // Consistency between the sparse kernel and the reference S: S·(A x)
  // computed with materialize_S equals (S·A)·x computed via the sparse
  // kernel.
  const auto a = random_sparse<double>(100, 30, 0.15, 4);
  std::vector<double> x(30);
  for (index_t j = 0; j < 30; ++j) x[static_cast<std::size_t>(j)] = 0.2 * j - 3.0;
  std::vector<double> ax(100, 0.0);
  spmv(a, x.data(), ax.data());

  SketchConfig cfg;
  cfg.d = 40;
  const auto s = materialize_S<double>(cfg, 100);
  std::vector<double> s_ax(40, 0.0);
  for (index_t j = 0; j < 100; ++j) {
    for (index_t i = 0; i < 40; ++i) {
      s_ax[static_cast<std::size_t>(i)] += s(i, j) * ax[static_cast<std::size_t>(j)];
    }
  }

  const auto a_hat = sketch(cfg, a);
  std::vector<double> sa_x(40, 0.0);
  for (index_t j = 0; j < 30; ++j) {
    for (index_t i = 0; i < 40; ++i) {
      sa_x[static_cast<std::size_t>(i)] += a_hat(i, j) * x[static_cast<std::size_t>(j)];
    }
  }
  for (index_t i = 0; i < 40; ++i) {
    EXPECT_NEAR(s_ax[static_cast<std::size_t>(i)],
                sa_x[static_cast<std::size_t>(i)],
                1e-9 * (std::fabs(sa_x[static_cast<std::size_t>(i)]) + 1.0));
  }
}

TEST(Integration, ThreadCountGuardRestoresSetting) {
  const int before = max_threads();
  {
    ThreadCountGuard guard(std::max(1, before - 1));
    // Any sketch under the guard must still be correct.
    const auto a = random_sparse<double>(60, 20, 0.2, 5);
    SketchConfig cfg;
    cfg.d = 16;
    cfg.parallel = ParallelOver::DBlocks;
    const auto s = sketch(cfg, a);
    EXPECT_EQ(s.rows(), 16);
  }
  EXPECT_EQ(max_threads(), before);
}

TEST(Integration, TransposedProblemSolvesLikeThePaper) {
  // The paper transposes wide inputs before least squares; verify that the
  // transpose + SAP path gives the optimum of the tall problem.
  const auto wide = random_sparse<double>(25, 400, 0.1, 6);
  const auto tall = transpose(wide);
  const auto b = make_least_squares_rhs(tall, 7);
  SapOptions opt;
  opt.gamma = 2.0;
  opt.lsqr_max_iter = 2000;
  const auto res = sap_solve(tall, b, opt);
  EXPECT_LT(ls_error_metric(tall, res.x, b), 1e-11);
}

}  // namespace
}  // namespace rsketch
