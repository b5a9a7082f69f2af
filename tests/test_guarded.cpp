// Tests for the guarded sketch-and-precondition driver (solvers/guarded.hpp):
// clean problems solve on the first attempt, a poisoned sketch triggers the
// re-sketch recovery path, exhausted retries raise numeric_error, and corrupt
// inputs are rejected up front.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "perf/perf.hpp"
#include "solvers/guarded.hpp"
#include "solvers/least_squares.hpp"
#include "sparse/generate.hpp"
#include "sparse/validate.hpp"
#include "testdata/faults.hpp"

namespace rsketch {
namespace {

CscMatrix<double> tall_matrix() {
  return random_sparse<double>(120, 40, 0.3, 2024);
}

TEST(Guarded, CleanProblemSolvesFirstTry) {
  const auto a = tall_matrix();
  const auto b = make_least_squares_rhs(a, 7);
  GuardedSapOptions opt;
  const auto g = guarded_sap_solve(a, b, opt);
  EXPECT_EQ(g.attempts, 1);
  EXPECT_FALSE(g.recovered);
  ASSERT_EQ(g.log.size(), 1u);
  EXPECT_EQ(g.log[0].outcome, SapAttemptOutcome::Success);
  EXPECT_TRUE(g.result.converged);
  EXPECT_LT(ls_error_metric(a, g.result.x, b), 1e-8);
}

TEST(Guarded, CleanFirstAttemptIsSapSolveBitForBit) {
  // One pipeline behind both solvers: a clean first attempt sketches with
  // the same seed and d as sap_solve and returns its x byte for byte.
  const auto a = tall_matrix();
  const auto b = make_least_squares_rhs(a, 7);
  for (const SapFactor factor : {SapFactor::QR, SapFactor::SVD}) {
    GuardedSapOptions opt;
    opt.base.factor = factor;
    const auto g = guarded_sap_solve(a, b, opt);
    const auto plain = sap_solve(a, b, opt.base);
    ASSERT_EQ(g.attempts, 1);
    EXPECT_EQ(g.log[0].d, static_cast<index_t>(std::ceil(
                              opt.base.gamma * static_cast<double>(a.cols()))));
    EXPECT_EQ(g.log[0].seed, opt.base.seed);
    EXPECT_EQ(g.result.iterations, plain.iterations);
    EXPECT_EQ(g.result.workspace_bytes, plain.workspace_bytes);
    ASSERT_EQ(g.result.x.size(), plain.x.size());
    EXPECT_EQ(std::memcmp(g.result.x.data(), plain.x.data(),
                          plain.x.size() * sizeof(double)),
              0)
        << "factor=" << static_cast<int>(factor);
  }
}

TEST(Guarded, PoisonedFirstSketchRecoversOnRetry) {
  const auto a = tall_matrix();
  const auto b = make_least_squares_rhs(a, 7);
  GuardedSapOptions opt;
  opt.poison_first_attempts = 1;  // test hook: NaN into attempt 1's sketch
  const auto g = guarded_sap_solve(a, b, opt);
  EXPECT_EQ(g.attempts, 2);
  EXPECT_TRUE(g.recovered);
  ASSERT_EQ(g.log.size(), 2u);
  EXPECT_EQ(g.log[0].outcome, SapAttemptOutcome::SketchNonFinite);
  EXPECT_EQ(g.log[1].outcome, SapAttemptOutcome::Success);
  // The retry drew a different seed and escalated d.
  EXPECT_NE(g.log[1].seed, g.log[0].seed);
  EXPECT_GE(g.log[1].d, g.log[0].d);
  // And the recovered solve is still a correct solve.
  EXPECT_LT(ls_error_metric(a, g.result.x, b), 1e-8);
}

TEST(Guarded, RetriesAreVisibleInPerfSpans) {
  const auto a = tall_matrix();
  const auto b = make_least_squares_rhs(a, 7);
  perf::set_enabled(true);
  perf::reset();
  GuardedSapOptions opt;
  opt.poison_first_attempts = 1;
  const auto g = guarded_sap_solve(a, b, opt);
  EXPECT_TRUE(g.recovered);
  const perf::Snapshot snap = perf::snapshot();
  ASSERT_NE(snap.spans.find("guarded_sap/retry"), snap.spans.end());
  EXPECT_EQ(snap.spans.at("guarded_sap/retry").count, 1u);
  ASSERT_NE(snap.spans.find("guarded_sap/attempt_ok"), snap.spans.end());
  perf::set_enabled(false);
  perf::reset();
}

TEST(Guarded, ExhaustedRetriesThrowNumericError) {
  const auto a = tall_matrix();
  const auto b = make_least_squares_rhs(a, 7);
  GuardedSapOptions opt;
  opt.max_attempts = 2;
  opt.poison_first_attempts = 2;  // poison every allowed attempt
  try {
    guarded_sap_solve(a, b, opt);
    FAIL() << "expected numeric_error";
  } catch (const numeric_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("attempt"), std::string::npos);
    EXPECT_NE(msg.find("sketch_non_finite"), std::string::npos);
  }
}

TEST(Guarded, EscalatedDIsCappedAtFourN) {
  const auto a = tall_matrix();
  const auto b = make_least_squares_rhs(a, 7);
  GuardedSapOptions opt;
  opt.max_attempts = 8;
  opt.d_growth = 4.0;
  opt.poison_first_attempts = 7;
  const auto g = guarded_sap_solve(a, b, opt);
  EXPECT_TRUE(g.recovered);
  for (const SapAttemptLog& log : g.log) {
    EXPECT_LE(log.d, 4 * a.cols());
  }
}

TEST(Guarded, CorruptMatrixIsRejectedBeforeAnyAttempt) {
  const auto a = tall_matrix();
  const auto bad =
      faults::corrupt_csc(a, faults::CscFault::IndexOutOfRange, 11);
  const auto b = make_least_squares_rhs(a, 7);
  GuardedSapOptions opt;
  EXPECT_THROW(guarded_sap_solve(bad, b, opt), validation_error);
}

TEST(Guarded, NonFiniteRhsIsRejected) {
  const auto a = tall_matrix();
  auto b = make_least_squares_rhs(a, 7);
  b[3] = std::numeric_limits<double>::infinity();
  GuardedSapOptions opt;
  EXPECT_THROW(guarded_sap_solve(a, b, opt), numeric_error);
}

TEST(Guarded, NanPayloadWithChecksOffIsCaughtBySketchScan) {
  // With input validation off, the NaN still cannot escape: the per-attempt
  // sketch scan sees it on every attempt and the driver reports exhaustion
  // instead of returning a poisoned x.
  const auto a = tall_matrix();
  const auto bad = faults::corrupt_csc(a, faults::CscFault::NanPayload, 4);
  const auto b = make_least_squares_rhs(a, 7);
  GuardedSapOptions opt;
  opt.check_inputs = false;
  opt.max_attempts = 2;
  try {
    guarded_sap_solve(bad, b, opt);
    FAIL() << "expected numeric_error";
  } catch (const numeric_error& e) {
    EXPECT_NE(std::string(e.what()).find("sketch_non_finite"),
              std::string::npos);
  }
}

TEST(Guarded, SvdPathAlsoRecovers) {
  const auto a = tall_matrix();
  const auto b = make_least_squares_rhs(a, 7);
  GuardedSapOptions opt;
  opt.base.factor = SapFactor::SVD;
  opt.poison_first_attempts = 1;
  const auto g = guarded_sap_solve(a, b, opt);
  EXPECT_TRUE(g.recovered);
  EXPECT_LT(ls_error_metric(a, g.result.x, b), 1e-8);
}

TEST(Guarded, LsqrBreakdownFieldDefaultsFalseOnCleanSolve) {
  const auto a = tall_matrix();
  const auto b = make_least_squares_rhs(a, 7);
  SapOptions opt;
  const auto res = sap_solve(a, b, opt);
  EXPECT_TRUE(res.converged);
}

}  // namespace
}  // namespace rsketch
