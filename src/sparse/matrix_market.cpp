#include "sparse/matrix_market.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "perf/perf.hpp"
#include "sparse/convert.hpp"
#include "sparse/coo.hpp"
#include "support/parallel.hpp"

namespace rsketch {

namespace {

// ---- reading ----------------------------------------------------------------

/// The whitespace istream >> skips in the C locale.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// Next whitespace-separated token of `line` at or after `pos` (advanced past
/// it); empty once the line is exhausted. A CRLF line's '\r' is whitespace.
std::string_view next_token(std::string_view line, std::size_t& pos) {
  while (pos < line.size() && is_space(line[pos])) ++pos;
  const std::size_t start = pos;
  while (pos < line.size() && !is_space(line[pos])) ++pos;
  return line.substr(start, pos - start);
}

bool is_blank_or_comment(std::string_view line) {
  return (!line.empty() && line[0] == '%') ||
         std::all_of(line.begin(), line.end(), is_space);
}

/// from_chars takes no leading '+', which istream >> always accepted.
std::string_view drop_plus(std::string_view tok) {
  if (tok.size() > 1 && tok[0] == '+' && tok[1] != '+' && tok[1] != '-') {
    tok.remove_prefix(1);
  }
  return tok;
}

/// Parse a whole token as an integer; trailing characters are an error.
bool parse_index(std::string_view tok, index_t& out) {
  tok = drop_plus(tok);
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
  return ec == std::errc() && ptr == end;
}

/// Parse a whole token as a finite T. Trailing characters ("2.5abc", "0x1p3"),
/// nan, inf and overflow are errors; underflow reads as zero, as it always did
/// through istream >> double.
template <typename T>
bool parse_value(std::string_view tok, T& out) {
  tok = drop_plus(tok);
  const char* end = tok.data() + tok.size();
  T v = 0;
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (ec == std::errc::invalid_argument || ptr != end) return false;
  if (ec == std::errc::result_out_of_range) {
    // from_chars reports underflow and overflow alike; strto* tells them
    // apart (HUGE_VAL on overflow). Only this rare path copies the token.
    const std::string s(tok);
    if constexpr (std::is_same_v<T, float>) {
      v = std::strtof(s.c_str(), nullptr);
    } else {
      v = std::strtod(s.c_str(), nullptr);
    }
  }
  if (!std::isfinite(v)) return false;
  out = v;
  return true;
}

/// Hands out the lines of a stream (without their '\n'), reading it in
/// chunks of kMatrixMarketReadChunk bytes into a buffer that is never
/// zero-filled. A line that crosses a chunk boundary is moved to the front
/// and completed by the next read; the buffer grows only for a line longer
/// than itself. A returned view stays valid until the next call.
class LineReader {
 public:
  explicit LineReader(std::istream& in)
      : in_(in),
        buf_(std::make_unique_for_overwrite<char[]>(kMatrixMarketReadChunk)),
        cap_(kMatrixMarketReadChunk) {}

  bool next(std::string_view& line) {
    for (;;) {
      const char* first = buf_.get() + begin_;
      const auto* nl =
          static_cast<const char*>(std::memchr(first, '\n', end_ - begin_));
      if (nl != nullptr) {
        line = std::string_view(first, static_cast<std::size_t>(nl - first));
        begin_ += line.size() + 1;
        return true;
      }
      if (eof_) {
        if (begin_ == end_) return false;
        line = std::string_view(first, end_ - begin_);  // no final '\n'
        begin_ = end_;
        return true;
      }
      refill();
    }
  }

 private:
  void refill() {
    const std::size_t kept = end_ - begin_;
    if (kept == cap_) {
      auto grown = std::make_unique_for_overwrite<char[]>(2 * cap_);
      std::memcpy(grown.get(), buf_.get() + begin_, kept);
      buf_ = std::move(grown);
      cap_ *= 2;
    } else {
      std::memmove(buf_.get(), buf_.get() + begin_, kept);
    }
    begin_ = 0;
    end_ = kept;
    in_.read(buf_.get() + end_, static_cast<std::streamsize>(cap_ - end_));
    if (in_.bad()) throw io_error("MatrixMarket: read error");
    const auto got = static_cast<std::size_t>(in_.gcount());
    end_ += got;
    eof_ = got == 0;
  }

  std::istream& in_;
  std::unique_ptr<char[]> buf_;
  std::size_t cap_;
  std::size_t begin_ = 0;  ///< first unread byte
  std::size_t end_ = 0;    ///< one past the last byte read
  bool eof_ = false;
};

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

struct MmHeader {
  bool pattern = false;
  bool symmetric = false;
  bool skew = false;
};

MmHeader parse_banner(std::string_view line) {
  std::size_t pos = 0;
  const std::string_view tag = next_token(line, pos);
  const std::string_view object = next_token(line, pos);
  const std::string_view format = next_token(line, pos);
  const std::string_view field = next_token(line, pos);
  const std::string_view symmetry = next_token(line, pos);
  if (tag != "%%MatrixMarket") {
    throw io_error("MatrixMarket: missing %%MatrixMarket banner");
  }
  if (lower(object) != "matrix" || lower(format) != "coordinate") {
    throw io_error("MatrixMarket: only 'matrix coordinate' is supported");
  }
  const std::string f = lower(field);
  if (f != "real" && f != "integer" && f != "pattern") {
    throw io_error("MatrixMarket: unsupported field type '" +
                   std::string(field) + "'");
  }
  const std::string s = lower(symmetry);
  if (s != "general" && s != "symmetric" && s != "skew-symmetric") {
    throw io_error("MatrixMarket: unsupported symmetry '" +
                   std::string(symmetry) + "'");
  }
  MmHeader h;
  h.pattern = (f == "pattern");
  h.symmetric = (s == "symmetric" || s == "skew-symmetric");
  h.skew = (s == "skew-symmetric");
  return h;
}

// ---- writing ----------------------------------------------------------------

/// Upper bound on the text of one entry: two 1-based indices (index_t has at
/// most 19 digits), a shortest round-trip value (at most 24 characters, as in
/// "-2.2250738585072014e-308"), two spaces and the newline.
constexpr std::size_t kIndexChars = 20;
constexpr std::size_t kValueChars = 24;
constexpr std::size_t kMaxEntryChars = 2 * kIndexChars + kValueChars + 3;

/// Each thread of the dense writer formats one piece at a time into a
/// buffer of this many bytes.
constexpr std::size_t kWritePieceBytes =
    static_cast<std::size_t>(kMatrixMarketWritePiece) * kMaxEntryChars;
static_assert(kWritePieceBytes <= kMatrixMarketWriteRound);

/// Format "i j v\n" at p and return the end. std::to_chars without a
/// precision gives the shortest text that reads back to the same bits.
template <typename T>
char* format_entry(char* p, index_t i, index_t j, T v) {
  p = std::to_chars(p, p + kIndexChars, i).ptr;
  *p++ = ' ';
  p = std::to_chars(p, p + kIndexChars, j).ptr;
  *p++ = ' ';
  p = std::to_chars(p, p + kValueChars, v).ptr;
  *p++ = '\n';
  return p;
}

void write_header(std::ostream& out, index_t m, index_t n, index_t nnz) {
  out << "%%MatrixMarket matrix coordinate real general\n"
      << m << ' ' << n << ' ' << nnz << '\n';
}

std::ofstream open_for_write(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw io_error("MatrixMarket: cannot open '" + path + "'");
  return out;
}

void close_checked(std::ofstream& out, const std::string& path) {
  out.close();
  if (!out) throw io_error("MatrixMarket: write to '" + path + "' failed");
}

/// Call f(i, j, value) for the column-major positions [lo, hi) of `a`
/// (position p is entry (p % m, p / m)), in order.
template <typename T, typename F>
void for_each_in_range(const DenseMatrix<T>& a, index_t lo, index_t hi, F&& f) {
  const index_t m = a.rows();
  for (index_t p = lo; p < hi;) {
    const index_t j = p / m;
    const index_t i0 = p % m;
    const index_t i1 = std::min(m, i0 + (hi - p));
    const T* col = a.col(j);
    for (index_t i = i0; i < i1; ++i) f(i, j, col[i]);
    p += i1 - i0;
  }
}

}  // namespace

template <typename T>
CscMatrix<T> read_matrix_market(std::istream& in) {
  perf::Span span("io/read");
  LineReader reader(in);
  std::string_view line;
  if (!reader.next(line)) throw io_error("MatrixMarket: empty stream");
  const MmHeader h = parse_banner(line);

  // Skip comments and blank lines to the size line.
  do {
    if (!reader.next(line)) {
      throw io_error("MatrixMarket: missing size line");
    }
  } while (is_blank_or_comment(line));

  index_t m = 0, n = 0, nnz = 0;
  {
    std::size_t pos = 0;
    if (!parse_index(next_token(line, pos), m) ||
        !parse_index(next_token(line, pos), n) ||
        !parse_index(next_token(line, pos), nnz) || m < 0 || n < 0 ||
        nnz < 0) {
      throw io_error("MatrixMarket: malformed size line: " + std::string(line));
    }
  }
  // Each (i, j) may appear once, so nnz <= m * n; checking it here keeps a
  // garbled size line from reserving a huge COO.
  if (nnz > 0 && (m == 0 || (nnz - 1) / m >= n)) {
    throw io_error("MatrixMarket: size line declares more than m*n entries: " +
                   std::string(line));
  }

  CooMatrix<T> coo(m, n);
  coo.reserve(h.symmetric
                  ? 2 * std::min(nnz, std::numeric_limits<index_t>::max() / 2)
                  : nnz);
  for (index_t k = 0; k < nnz;) {
    if (!reader.next(line)) {
      throw io_error("MatrixMarket: unexpected end of entries");
    }
    if (is_blank_or_comment(line)) continue;  // tolerated between entries
    std::size_t pos = 0;
    index_t i = 0, j = 0;
    if (!parse_index(next_token(line, pos), i) ||
        !parse_index(next_token(line, pos), j)) {
      throw io_error("MatrixMarket: malformed entry: " + std::string(line));
    }
    T v = 1;
    if (!h.pattern) {
      const std::string_view tok = next_token(line, pos);
      if (tok.empty()) {
        throw io_error("MatrixMarket: entry missing value: " + std::string(line));
      }
      if (!parse_value(tok, v)) {
        throw io_error("MatrixMarket: malformed value: " + std::string(line));
      }
    }
    if (i < 1 || i > m || j < 1 || j > n) {
      throw io_error("MatrixMarket: entry index out of range: " +
                     std::string(line));
    }
    coo.push(i - 1, j - 1, v);
    if (h.symmetric && i != j) {
      coo.push(j - 1, i - 1, h.skew ? -v : v);
    }
    ++k;
  }
  CscMatrix<T> csc = coo_to_csc(coo);
  // coo_to_csc sums coincident entries, so a shrunken nnz means the file
  // listed some (i, j) twice. Silently summing duplicates corrupts matrices
  // whose writers meant "overwrite" (and masks broken writers), so reject.
  if (csc.nnz() != coo.nnz()) {
    throw io_error("MatrixMarket: duplicate (i, j) entries in input");
  }
  return csc;
}

template <typename T>
CscMatrix<T> read_matrix_market_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw io_error("MatrixMarket: cannot open '" + path + "'");
  return read_matrix_market<T>(in);
}

template <typename T>
void write_matrix_market(std::ostream& out, const CscMatrix<T>& a) {
  perf::Span span("io/write");
  write_header(out, a.rows(), a.cols(), a.nnz());
  std::vector<char> buf(kMatrixMarketWriteRound + kMaxEntryChars);
  char* const flush_at = buf.data() + kMatrixMarketWriteRound;
  char* p = buf.data();
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t q = a.col_ptr()[static_cast<std::size_t>(j)];
         q < a.col_ptr()[static_cast<std::size_t>(j) + 1]; ++q) {
      p = format_entry(p, a.row_idx()[static_cast<std::size_t>(q)] + 1, j + 1,
                       a.values()[static_cast<std::size_t>(q)]);
      if (p >= flush_at) {
        out.write(buf.data(), p - buf.data());
        p = buf.data();
      }
    }
  }
  out.write(buf.data(), p - buf.data());
}

template <typename T>
void write_matrix_market_file(const std::string& path, const CscMatrix<T>& a) {
  std::ofstream out = open_for_write(path);
  write_matrix_market(out, a);
  close_checked(out, path);
}

template <typename T>
void write_matrix_market_file(const std::string& path, const DenseMatrix<T>& a) {
  perf::Span span("io/write");
  std::ofstream out = open_for_write(path);
  const index_t m = a.rows();
  const index_t n = a.cols();
  const index_t total = m * n;  // DenseMatrix::reset guards ld * n <= max
  // Piece k is positions [k·piece, (k+1)·piece). Pieces are written in
  // order, so the file is the same sequence of entries for any thread count.
  constexpr index_t piece = kMatrixMarketWritePiece;
  const index_t pieces = ceil_div(total, piece);
  const int threads = static_cast<int>(
      std::clamp<index_t>(pieces, 1, static_cast<index_t>(max_threads())));
  // Allocated here, where a failure can throw, and never filled: each page
  // is first touched by the thread that formats into it.
  std::vector<std::unique_ptr<char[]>> bufs(static_cast<std::size_t>(threads));
  for (auto& buf : bufs) {
    buf = std::make_unique_for_overwrite<char[]>(kWritePieceBytes);
  }
  const auto range = [&](index_t k) {
    return std::pair{k * piece, std::min(total, (k + 1) * piece)};
  };
  // Counting the nonzeros for the header, then formatting, are claimed piece
  // by piece. A thread that has formatted piece k waits until piece k - 1 is
  // written, writes its own and claims the next, so writes overlap the
  // formatting of later pieces.
  std::atomic<index_t> next_count{0}, counted{0}, nnz{0}, next_format{0};
  std::atomic<index_t> written{0};
#pragma omp parallel num_threads(threads) if (threads > 1)
  {
    for (index_t k; (k = next_count.fetch_add(1)) < pieces;) {
      const auto [lo, hi] = range(k);
      index_t c = 0;
      for_each_in_range(a, lo, hi, [&c](index_t, index_t, T v) {
        if (v != T{0}) ++c;
      });
      nnz.fetch_add(c);
      counted.fetch_add(1);
    }
    char* const buf =
        bufs[static_cast<std::size_t>(omp_get_thread_num())].get();
    for (index_t k; (k = next_format.fetch_add(1)) < pieces;) {
      const auto [lo, hi] = range(k);
      char* end = buf;
      for_each_in_range(a, lo, hi, [&end](index_t i, index_t j, T v) {
        if (v != T{0}) end = format_entry(end, i + 1, j + 1, v);
      });
      while (written.load() != k) std::this_thread::yield();
      if (k == 0) {
        while (counted.load() != pieces) std::this_thread::yield();
        write_header(out, m, n, nnz.load());
      }
      out.write(buf, end - buf);
      written.store(k + 1);
    }
  }
  if (pieces == 0) write_header(out, m, n, 0);
  close_checked(out, path);
}

#define RSKETCH_INSTANTIATE(T)                                       \
  template CscMatrix<T> read_matrix_market<T>(std::istream&);       \
  template CscMatrix<T> read_matrix_market_file<T>(const std::string&); \
  template void write_matrix_market<T>(std::ostream&, const CscMatrix<T>&); \
  template void write_matrix_market_file<T>(const std::string&,     \
                                            const CscMatrix<T>&);   \
  template void write_matrix_market_file<T>(const std::string&,     \
                                            const DenseMatrix<T>&);

RSKETCH_INSTANTIATE(float)
RSKETCH_INSTANTIATE(double)
#undef RSKETCH_INSTANTIATE

}  // namespace rsketch
