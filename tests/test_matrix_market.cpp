// Matrix Market I/O: round trips, symmetry/pattern handling, and failure
// injection on malformed inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "sparse/generate.hpp"
#include "sparse/matrix_market.hpp"
#include "support/parallel.hpp"

namespace rsketch {
namespace {

TEST(MatrixMarket, WriteReadRoundTrip) {
  const auto a = random_sparse<double>(20, 15, 0.2, 11);
  std::stringstream ss;
  write_matrix_market(ss, a);
  const auto b = read_matrix_market<double>(ss);
  EXPECT_EQ(b.rows(), a.rows());
  EXPECT_EQ(b.cols(), a.cols());
  ASSERT_EQ(b.nnz(), a.nnz());
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t p = a.col_ptr()[j]; p < a.col_ptr()[j + 1]; ++p) {
      const index_t i = a.row_idx()[p];
      EXPECT_NEAR(b.at(i, j), a.at(i, j), 1e-12);
    }
  }
}

TEST(MatrixMarket, ParsesGeneralReal) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "% a comment\n"
      "3 2 3\n"
      "1 1 2.5\n"
      "3 1 -1.0\n"
      "2 2 4\n");
  const auto a = read_matrix_market<double>(ss);
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.cols(), 2);
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(a.at(2, 0), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 4.0);
}

TEST(MatrixMarket, PatternEntriesBecomeOnes) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate pattern general\n"
      "2 2 2\n"
      "1 1\n"
      "2 2\n");
  const auto a = read_matrix_market<float>(ss);
  EXPECT_FLOAT_EQ(a.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(a.at(1, 1), 1.0f);
}

TEST(MatrixMarket, SymmetricMirrored) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 2\n"
      "2 1 5.0\n"
      "3 3 7.0\n");
  const auto a = read_matrix_market<double>(ss);
  EXPECT_EQ(a.nnz(), 3);  // (2,1), mirror (1,2), diagonal (3,3) once
  EXPECT_DOUBLE_EQ(a.at(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(a.at(2, 2), 7.0);
}

TEST(MatrixMarket, SkewSymmetricNegated) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real skew-symmetric\n"
      "2 2 1\n"
      "2 1 3.0\n");
  const auto a = read_matrix_market<double>(ss);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), -3.0);
}

TEST(MatrixMarket, IntegerField) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate integer general\n"
      "2 2 1\n"
      "1 2 -4\n");
  const auto a = read_matrix_market<double>(ss);
  EXPECT_DOUBLE_EQ(a.at(0, 1), -4.0);
}

TEST(MatrixMarket, MalformedInputsThrow) {
  auto parse = [](const std::string& text) {
    std::stringstream ss(text);
    return read_matrix_market<double>(ss);
  };
  EXPECT_THROW(parse(""), io_error);
  EXPECT_THROW(parse("not a banner\n1 1 0\n"), io_error);
  EXPECT_THROW(parse("%%MatrixMarket matrix array real general\n1 1\n1.0\n"),
               io_error);
  EXPECT_THROW(
      parse("%%MatrixMarket matrix coordinate complex general\n1 1 0\n"),
      io_error);
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\n"),
               io_error);  // missing size line
  EXPECT_THROW(parse("%%MatrixMarket matrix coordinate real general\nx y z\n"),
               io_error);  // malformed size line
  EXPECT_THROW(
      parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n"),
      io_error);  // missing entry
  EXPECT_THROW(
      parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"),
      io_error);  // out-of-range index
  EXPECT_THROW(
      parse("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n"),
      io_error);  // missing value for real field
  EXPECT_THROW(
      parse("%%MatrixMarket matrix coordinate real general\n2 2 5\n1 1 1\n"),
      io_error);  // more entries declared than m*n
  // A value token must be a finite decimal number from end to end.
  for (const char* tok : {"0x1p3", "2.5abc", "nan", "inf", "-inf", "1e400",
                          "+-1", "1e"}) {
    EXPECT_THROW(parse(std::string("%%MatrixMarket matrix coordinate real "
                                   "general\n2 2 1\n1 1 ") +
                       tok + "\n"),
                 io_error)
        << tok;
  }
}

TEST(MatrixMarket, ValueTokensIstreamAlwaysAccepted) {
  // Leading '+', bare '.', underflow to zero and trailing extra tokens all
  // parsed through istream >> double and still do.
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 3 5\n"
      "+1 1 +2.5\n"
      "2 1 1.\n"
      "1 2 .5 extra tokens\n"
      "2 2 1e-400\n"
      "1 3 -4.9e-324\n");
  const auto a = read_matrix_market<double>(ss);
  ASSERT_EQ(a.nnz(), 5);
  EXPECT_EQ(a.at(0, 0), 2.5);
  EXPECT_EQ(a.at(1, 0), 1.0);
  EXPECT_EQ(a.at(0, 1), 0.5);
  EXPECT_EQ(a.at(1, 1), 0.0);
  EXPECT_EQ(a.at(0, 2), -std::numeric_limits<double>::denorm_min());
}

/// Values that need every significant digit, subnormals, the extremes and
/// negatives, plus a spread of random finite bit patterns.
template <typename T>
std::vector<T> hard_values() {
  using L = std::numeric_limits<T>;
  std::vector<T> v = {T(0.1) + T(0.2),  T(1) / T(3),     std::nextafter(T(1), T(2)),
                      L::denorm_min(),   L::min() / T(3), L::min(),
                      L::max(),          L::lowest(),     -L::denorm_min(),
                      T(-1e-5),          T(123456789),    T(-2.5)};
  using Bits = std::conditional_t<sizeof(T) == 8, std::uint64_t, std::uint32_t>;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  while (v.size() < 500) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    const auto bits = static_cast<Bits>(state >> (64 - 8 * sizeof(T)));
    T x;
    std::memcpy(&x, &bits, sizeof x);
    if (std::isfinite(x) && x != T(0)) v.push_back(x);
  }
  return v;
}

template <typename T>
void expect_bit_exact_round_trip() {
  const std::vector<T> vals = hard_values<T>();
  const auto m = static_cast<index_t>(vals.size());
  std::vector<index_t> col_ptr = {0, m};
  std::vector<index_t> row_idx(vals.size());
  for (index_t i = 0; i < m; ++i) row_idx[static_cast<std::size_t>(i)] = i;
  const CscMatrix<T> a(m, 1, col_ptr, row_idx, vals);
  std::stringstream ss;
  write_matrix_market(ss, a);
  const auto b = read_matrix_market<T>(ss);
  ASSERT_EQ(b.nnz(), a.nnz());
  EXPECT_EQ(b.row_idx(), a.row_idx());
  EXPECT_EQ(std::memcmp(b.values().data(), a.values().data(),
                        vals.size() * sizeof(T)),
            0);
}

TEST(MatrixMarket, RoundTripIsBitExactDouble) {
  expect_bit_exact_round_trip<double>();
}

TEST(MatrixMarket, RoundTripIsBitExactFloat) {
  expect_bit_exact_round_trip<float>();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Dense m x n with a third of the entries zero and the rest random doubles.
DenseMatrix<double> dense_with_zeros(index_t m, index_t n) {
  DenseMatrix<double> d(m, n);
  const auto a = random_sparse<double>(m, n, 0.67, 5);
  for (index_t j = 0; j < n; ++j) {
    for (index_t p = a.col_ptr()[j]; p < a.col_ptr()[j + 1]; ++p) {
      d(a.row_idx()[p], j) = a.values()[p];
    }
  }
  return d;
}

TEST(MatrixMarket, DenseAndCscWritersGiveIdenticalFiles) {
  const DenseMatrix<double> d = dense_with_zeros(37, 23);
  std::vector<index_t> col_ptr = {0}, row_idx;
  std::vector<double> vals;
  for (index_t j = 0; j < d.cols(); ++j) {
    for (index_t i = 0; i < d.rows(); ++i) {
      if (d(i, j) != 0.0) {
        row_idx.push_back(i);
        vals.push_back(d(i, j));
      }
    }
    col_ptr.push_back(static_cast<index_t>(vals.size()));
  }
  ASSERT_LT(vals.size(), static_cast<std::size_t>(d.rows() * d.cols()));
  const CscMatrix<double> a(d.rows(), d.cols(), col_ptr, row_idx, vals);
  const std::string dense_path = ::testing::TempDir() + "/rsketch_dense.mtx";
  const std::string csc_path = ::testing::TempDir() + "/rsketch_csc.mtx";
  write_matrix_market_file(dense_path, d);
  write_matrix_market_file(csc_path, a);
  EXPECT_EQ(slurp(dense_path), slurp(csc_path));
}

TEST(MatrixMarket, DenseWriterBytesIndependentOfThreadCount) {
  // 403 rows: pieces end mid-column. 282100 positions: 69 pieces, more than
  // any team here, and more text than one thread's round.
  const DenseMatrix<double> d = dense_with_zeros(403, 700);
  ASSERT_NE(kMatrixMarketWritePiece % d.rows(), 0);
  ASSERT_GT(d.rows() * d.cols(), 16 * kMatrixMarketWritePiece);
  const std::string path = ::testing::TempDir() + "/rsketch_dense_t.mtx";
  std::string one;
  for (const int threads : {1, 2, 3, 4}) {
    ThreadCountGuard guard(threads);
    write_matrix_market_file(path, d);
    const std::string bytes = slurp(path);
    if (threads == 1) {
      one = bytes;
      EXPECT_GT(one.size(), 4 * kMatrixMarketWriteRound);
    } else {
      EXPECT_TRUE(bytes == one) << threads << " threads";
    }
  }
  const auto back = read_matrix_market_file<double>(path);
  DenseMatrix<double> scattered(back.rows(), back.cols());
  for (index_t j = 0; j < back.cols(); ++j) {
    for (index_t p = back.col_ptr()[j]; p < back.col_ptr()[j + 1]; ++p) {
      scattered(back.row_idx()[p], j) = back.values()[p];
    }
  }
  EXPECT_EQ(scattered.max_abs_diff(d), 0.0);
}

TEST(MatrixMarket, DenseWriterOverwritesAnExistingFileExactly) {
  // An existing file is replaced: what was there before, longer or shorter,
  // leaves no trace.
  const DenseMatrix<double> d = dense_with_zeros(57, 90);
  const std::string fresh = ::testing::TempDir() + "/rsketch_dense_fresh.mtx";
  const std::string reused = ::testing::TempDir() + "/rsketch_dense_reused.mtx";
  std::remove(fresh.c_str());
  write_matrix_market_file(fresh, d);
  const std::string want = slurp(fresh);
  for (const std::size_t before : {want.size() * 3, want.size() / 2}) {
    std::ofstream(reused, std::ios::binary) << std::string(before, '7');
    write_matrix_market_file(reused, d);
    EXPECT_TRUE(slurp(reused) == want) << "over " << before << " bytes";
  }
}

TEST(MatrixMarket, ChunkStraddlingInputParsesFromStreamAndFile) {
  const index_t m = 200, n = 250;
  std::string text =
      "%%MatrixMarket matrix coordinate real general\n" + std::to_string(m) +
      " " + std::to_string(n) + " " + std::to_string(m * n) + "\n";
  // Pad with a comment so that the first entry starts 6 bytes before the
  // end of the first chunk and straddles it.
  text += "%" + std::string(kMatrixMarketReadChunk - 6 - text.size() - 2, 'p') +
          "\n";
  ASSERT_EQ(text.size(), kMatrixMarketReadChunk - 6);
  std::ostringstream entries;
  entries.precision(17);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      if (j == n / 2 && i == 0) {
        // A line longer than a whole chunk makes the reader grow its buffer.
        entries << "% " << std::string(kMatrixMarketReadChunk + 10, 'q') << "\n";
      }
      entries << i + 1 << " " << j + 1 << " " << 0.125 + 1.0 / (1 + i + m * j)
              << "\n";
    }
  }
  text += entries.str();
  ASSERT_GT(text.size(), 3 * kMatrixMarketReadChunk);

  std::istringstream is(text);
  const auto from_stream = read_matrix_market<double>(is);
  const std::string path = ::testing::TempDir() + "/rsketch_chunks.mtx";
  std::ofstream(path, std::ios::binary) << text;
  const auto from_file = read_matrix_market_file<double>(path);

  ASSERT_EQ(from_stream.nnz(), m * n);
  EXPECT_EQ(from_stream.at(0, 0), 0.125 + 1.0);  // the straddling line
  EXPECT_EQ(from_stream.at(m - 1, n - 1), 0.125 + 1.0 / (m * n));
  EXPECT_EQ(from_file.col_ptr(), from_stream.col_ptr());
  EXPECT_EQ(from_file.row_idx(), from_stream.row_idx());
  EXPECT_EQ(std::memcmp(from_file.values().data(), from_stream.values().data(),
                        from_stream.values().size() * sizeof(double)),
            0);
}

// ---- entry lines across chunk boundaries ----------------------------------
//
// Texts whose lines are all kLine bytes long, after a header exactly kBlock
// bytes long: every kBlock bytes of the text, each chunk boundary included,
// then start on an entry-section line whose index is a multiple of
// kLinesPerBlock, so a test can put any kind of line on those boundaries.

constexpr std::size_t kLine = 32;
constexpr std::size_t kBlock = std::size_t{1} << 14;
constexpr std::size_t kLinesPerBlock = kBlock / kLine;
static_assert(kBlock % kLine == 0);
static_assert(kMatrixMarketReadChunk % kBlock == 0);

std::string fixed_line(std::string content, bool crlf) {
  const std::size_t body = kLine - (crlf ? 2 : 1);
  EXPECT_LE(content.size(), body);
  content.resize(body, ' ');
  return content + (crlf ? "\r\n" : "\n");
}

/// Distinct lower-triangular coordinates, a diagonal one every 50.
std::pair<index_t, index_t> coordinate(index_t k) {
  const index_t j = k / 50 + 1;
  return {j + k % 50, j};
}

struct AlignedText {
  std::string text;
  CscMatrix<double> want;  ///< the matrix the text holds
};

/// `lines` entry-section lines of a square n×n file with the given symmetry
/// and field. Lines at the start and the end of each block cycle
/// through a comment, a blank line, a CRLF entry and a plain entry; the
/// other lines are entries. `bad` maps line indices to lines put there
/// instead.
AlignedText aligned_text(const std::string& symmetry, bool pattern,
                         std::size_t lines,
                         const std::vector<std::pair<std::size_t, std::string>>&
                             bad = {}) {
  const index_t n = 1000;
  std::string body;
  CooMatrix<double> coo(n, n);
  index_t nnz = 0;
  for (std::size_t t = 0; t < lines; ++t) {
    const auto it = std::find_if(bad.begin(), bad.end(),
                                 [t](const auto& b) { return b.first == t; });
    if (it != bad.end()) {
      body += fixed_line(it->second, false);
      ++nnz;  // counted as an entry line; parsing it must fail
      continue;
    }
    const std::size_t in_block = t % kLinesPerBlock;
    const bool edge = in_block == 0 || in_block + 1 == kLinesPerBlock;
    const std::size_t kind =
        edge ? (t / kLinesPerBlock + (in_block != 0 ? 1 : 0)) % 4 : 3;
    if (kind == 0) {
      body += fixed_line("% comment " + std::to_string(t), false);
      continue;
    }
    if (kind == 1) {
      body += fixed_line(" \t", t % 2 == 0);
      continue;
    }
    const auto [i, j] = coordinate(nnz);
    const double v = pattern ? 1.0 : 0.25 * static_cast<double>(nnz) - 7.0;
    std::string content = std::to_string(i + 1) + " " + std::to_string(j + 1);
    if (!pattern) {
      std::ostringstream os;
      os << v;
      content += " " + os.str();
    }
    body += fixed_line(content, kind == 2);
    coo.push(i, j, v);
    if (symmetry == "symmetric" && i != j) coo.push(j, i, v);
    ++nnz;
  }
  const std::string banner = "%%MatrixMarket matrix coordinate " +
                             std::string(pattern ? "pattern " : "real ") +
                             symmetry + "\n";
  const std::string size = std::to_string(n) + " " + std::to_string(n) + " " +
                           std::to_string(nnz) + "\n";
  const std::string pad =
      "%" +
      std::string(kBlock - banner.size() - size.size() - 2, 'p') +
      "\n";
  AlignedText out{banner + pad + size + body, coo_to_csc(coo)};
  EXPECT_EQ(out.text.size(), kBlock + lines * kLine);
  return out;
}

void expect_same_csc(const CscMatrix<double>& a, const CscMatrix<double>& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(a.col_ptr(), b.col_ptr());
  EXPECT_EQ(a.row_idx(), b.row_idx());
  ASSERT_EQ(a.values().size(), b.values().size());
  EXPECT_EQ(std::memcmp(a.values().data(), b.values().data(),
                        a.values().size() * sizeof(double)),
            0);
}

CscMatrix<double> parse(const std::string& text) {
  std::istringstream is(text);
  return read_matrix_market<double>(is);
}

TEST(MatrixMarket, MixedLinesParseAcrossChunks) {
  // Three and a half chunks of 32-byte lines: 57 blocks.
  const std::size_t lines = (7 * kMatrixMarketReadChunk / 2) / kLine;
  for (const auto& [symmetry, pattern] :
       {std::pair{"symmetric", false}, std::pair{"general", true},
        std::pair{"symmetric", true}}) {
    SCOPED_TRACE(std::string(symmetry) + (pattern ? " pattern" : " real"));
    const AlignedText t = aligned_text(symmetry, pattern, lines);
    expect_same_csc(parse(t.text), t.want);
  }
}

TEST(MatrixMarket, FirstBadLineIsReported) {
  // Bad lines in blocks 3 and 12 of the first chunk and in block 40, two
  // chunks on: the earliest is reported.
  const std::size_t lines = 3 * kMatrixMarketReadChunk / kLine;
  const std::size_t first = 3 * kLinesPerBlock + 7;
  ASSERT_LT(12 * kBlock, kMatrixMarketReadChunk);
  const AlignedText t = aligned_text("general", false, lines,
                                     {{12 * kLinesPerBlock + 1, "2 2 second?"},
                                      {first, "1 1 first?"},
                                      {40 * kLinesPerBlock + 1, "3 3 third?"}});
  try {
    parse(t.text);
    ADD_FAILURE() << "a malformed value must throw";
  } catch (const io_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "MatrixMarket: malformed value: 1 1 first?" +
                  std::string(kLine - 1 - 10, ' '));
  }
}

TEST(MatrixMarket, LinesAfterTheLastEntryIgnored) {
  // Garbage after the declared entries is never an error, even a chunk on.
  const std::size_t lines = 2 * kMatrixMarketReadChunk / kLine;
  AlignedText t = aligned_text("general", false, lines);
  for (int k = 0; k < 2000; ++k) t.text += fixed_line("not an entry", k % 2);
  expect_same_csc(parse(t.text), t.want);
}

TEST(MatrixMarket, CrlfLineEndingsParse) {
  // Files written on Windows end every line with \r\n; the trailing \r used
  // to leak into the symmetry token and blank-line checks.
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real symmetric\r\n"
      "% comment\r\n"
      "3 3 2\r\n"
      "2 1 5.0\r\n"
      "3 3 7.0\r\n");
  const auto a = read_matrix_market<double>(ss);
  EXPECT_EQ(a.nnz(), 3);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 5.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 5.0);
}

TEST(MatrixMarket, BlankAndWhitespaceLinesTolerated) {
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "\n"
      "   \n"
      "2 2 2\n"
      "1 1 1.5\n"
      "  \n"
      "2 2 2.5\n"
      "\n"
      "   \n");
  const auto a = read_matrix_market<double>(ss);
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(a.at(1, 1), 2.5);
}

TEST(MatrixMarket, DuplicateEntriesRejected) {
  // Silently summing duplicates turns a malformed file into a plausible but
  // wrong matrix; the reader must refuse instead.
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 3\n"
      "1 1 1.0\n"
      "2 2 2.0\n"
      "1 1 4.0\n");
  EXPECT_THROW(read_matrix_market<double>(ss), io_error);
}

TEST(MatrixMarket, SymmetricDiagonalIsNotADuplicate) {
  // Mirroring must not double the diagonal and then trip duplicate rejection.
  std::stringstream ss(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 3\n"
      "1 1 1.0\n"
      "2 1 5.0\n"
      "2 2 3.0\n");
  const auto a = read_matrix_market<double>(ss);
  EXPECT_EQ(a.nnz(), 4);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(0, 1), 5.0);
}

TEST(MatrixMarket, FileRoundTripAndMissingFile) {
  const auto a = random_sparse<double>(10, 10, 0.3, 3);
  const std::string path = ::testing::TempDir() + "/rsketch_test.mtx";
  write_matrix_market_file(path, a);
  const auto b = read_matrix_market_file<double>(path);
  EXPECT_EQ(b.nnz(), a.nnz());
  EXPECT_THROW(read_matrix_market_file<double>("/nonexistent/nope.mtx"),
               io_error);
}

}  // namespace
}  // namespace rsketch
