#include "poly/io.hpp"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <limits>
#include <sstream>

namespace polyeval::poly {

namespace {

std::string format_real(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string format_coefficient(const cplx::Complex<double>& c) {
  if (c.im() == 0.0) return format_real(c.re());
  std::string out = "(";
  out += format_real(c.re());
  out += ',';
  out += format_real(c.im());
  out += ')';
  return out;
}

/// Minimal recursive-descent parser over a string_view.
class Parser {
 public:
  Parser(std::string_view text, unsigned num_vars) : text_(text), num_vars_(num_vars) {}

  [[nodiscard]] Polynomial parse_one_polynomial() {
    auto poly = parse_terms();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing input after polynomial");
    return poly;
  }

  [[nodiscard]] PolynomialSystem parse_whole_system() {
    // First pass: split on ';' to learn the dimension.
    std::vector<std::string_view> chunks;
    std::size_t start = 0;
    for (std::size_t i = 0; i < text_.size(); ++i) {
      if (text_[i] == ';') {
        chunks.push_back(text_.substr(start, i - start));
        start = i + 1;
      }
    }
    const auto rest = text_.substr(start);
    if (rest.find_first_not_of(" \t\r\n") != std::string_view::npos)
      fail("input after the last ';'");
    if (chunks.empty()) fail("no polynomial found (missing ';'?)");

    const auto n = static_cast<unsigned>(chunks.size());
    std::vector<Polynomial> polys;
    polys.reserve(n);
    std::size_t offset = 0;
    for (const auto chunk : chunks) {
      Parser sub(chunk, n);
      sub.base_offset_ = offset;
      polys.push_back(sub.parse_terms_to_end());
      offset += chunk.size() + 1;
    }
    return PolynomialSystem(std::move(polys));
  }

 private:
  [[nodiscard]] Polynomial parse_terms_to_end() {
    auto poly = parse_terms();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing input after polynomial");
    return poly;
  }

  [[nodiscard]] Polynomial parse_terms() {
    std::vector<Monomial> monomials;
    skip_ws();
    if (pos_ == text_.size()) fail("empty polynomial");
    bool negate = false;
    if (peek() == '+' || peek() == '-') negate = (take() == '-');
    monomials.push_back(parse_term(negate));
    for (;;) {
      skip_ws();
      if (pos_ == text_.size()) break;
      const char c = peek();
      if (c != '+' && c != '-') break;
      ++pos_;
      monomials.push_back(parse_term(c == '-'));
    }
    return Polynomial(num_vars_, std::move(monomials));
  }

  [[nodiscard]] Monomial parse_term(bool negate) {
    skip_ws();
    cplx::Complex<double> coeff{1.0, 0.0};
    bool have_coeff = false;

    if (pos_ < text_.size() && (peek() == '(' || std::isdigit(uc(peek())) ||
                                peek() == '.' || peek() == '+' || peek() == '-')) {
      coeff = parse_coefficient();
      have_coeff = true;
    }

    std::vector<VarPower> factors;
    for (;;) {
      skip_ws();
      if (have_coeff || !factors.empty()) {
        // factors after the first element need a '*'
        if (pos_ < text_.size() && peek() == '*') {
          ++pos_;
          skip_ws();
        } else {
          break;
        }
      }
      if (pos_ >= text_.size() || peek() != 'x') {
        if (have_coeff || !factors.empty()) fail("expected variable after '*'");
        fail("expected coefficient or variable");
      }
      factors.push_back(parse_var_power());
      have_coeff = false;  // only relevant before the first factor
    }

    if (negate) coeff = cplx::Complex<double>{-coeff.re(), -coeff.im()};
    return Monomial(coeff, std::move(factors));
  }

  [[nodiscard]] cplx::Complex<double> parse_coefficient() {
    if (peek() == '(') {
      ++pos_;
      const double re = parse_real();
      skip_ws();
      if (pos_ >= text_.size() || take() != ',') fail("expected ',' in complex literal");
      const double im = parse_real();
      skip_ws();
      if (pos_ >= text_.size() || take() != ')') fail("expected ')' in complex literal");
      return {re, im};
    }
    return {parse_real(), 0.0};
  }

  [[nodiscard]] double parse_real() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (peek() == '+' || peek() == '-')) ++pos_;
    bool any = false;
    while (pos_ < text_.size() && (std::isdigit(uc(peek())) || peek() == '.')) {
      ++pos_;
      any = true;
    }
    if (pos_ < text_.size() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (peek() == '+' || peek() == '-')) ++pos_;
      while (pos_ < text_.size() && std::isdigit(uc(peek()))) ++pos_;
    }
    if (!any) fail("expected number");
    double value = 0.0;
    const auto* begin = text_.data() + start;
    const auto* end = text_.data() + pos_;
    const auto result = std::from_chars(begin, end, value);
    if (result.ec != std::errc() || result.ptr != end) fail("malformed number");
    return value;
  }

  [[nodiscard]] VarPower parse_var_power() {
    ++pos_;  // consume 'x'
    if (pos_ >= text_.size() || !std::isdigit(uc(peek())))
      fail("expected variable index after 'x'");
    // Both accumulators are 64-bit and checked after every digit, so a
    // long digit string throws instead of wrapping.
    std::uint64_t var = 0;
    while (pos_ < text_.size() && std::isdigit(uc(peek()))) {
      var = var * 10 + static_cast<unsigned>(take() - '0');
      if (var >= num_vars_)
        fail("variable index out of range (dimension " + std::to_string(num_vars_) + ")");
    }
    std::uint64_t exp = 1;
    skip_ws();
    if (pos_ < text_.size() && peek() == '^') {
      ++pos_;
      skip_ws();
      if (pos_ >= text_.size() || !std::isdigit(uc(peek())))
        fail("expected exponent after '^'");
      exp = 0;
      while (pos_ < text_.size() && std::isdigit(uc(peek()))) {
        exp = exp * 10 + static_cast<unsigned>(take() - '0');
        if (exp > std::numeric_limits<unsigned>::max()) fail("exponent too large");
      }
      if (exp == 0) fail("exponent must be >= 1");
    }
    return {static_cast<unsigned>(var), static_cast<unsigned>(exp)};
  }

  static unsigned char uc(char c) { return static_cast<unsigned char>(c); }
  [[nodiscard]] char peek() const { return text_[pos_]; }
  char take() { return text_[pos_++]; }
  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(uc(text_[pos_]))) ++pos_;
  }
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError(message, base_offset_ + pos_);
  }

  std::string_view text_;
  unsigned num_vars_;
  std::size_t pos_ = 0;
  std::size_t base_offset_ = 0;
};

}  // namespace

std::string format(const Monomial& monomial) {
  std::string out = format_coefficient(monomial.coefficient());
  for (const auto& f : monomial.factors()) {
    out += "*x";
    out += std::to_string(f.var);
    if (f.exp > 1) {
      out += '^';
      out += std::to_string(f.exp);
    }
  }
  return out;
}

std::string format(const Polynomial& polynomial) {
  if (polynomial.monomials().empty()) return "0";
  std::string out;
  for (std::size_t i = 0; i < polynomial.monomials().size(); ++i) {
    const auto& mono = polynomial.monomials()[i];
    // pull a pure-real negative sign out of the coefficient so the
    // rendering re-parses ("a - 2*x0", never "a + -2*x0")
    const bool pull_sign = mono.coefficient().im() == 0.0 && mono.coefficient().re() < 0.0;
    if (i == 0) {
      if (pull_sign) out += "-";
    } else {
      out += pull_sign ? " - " : " + ";
    }
    out += format(pull_sign ? Monomial(-mono.coefficient(), mono.factors()) : mono);
  }
  return out;
}

std::string format(const PolynomialSystem& system) {
  std::string out;
  for (const auto& p : system.polynomials()) {
    out += format(p);
    out += ";\n";
  }
  return out;
}

Polynomial parse_polynomial(std::string_view text, unsigned num_vars) {
  Parser parser(text, num_vars);
  return parser.parse_one_polynomial();
}

PolynomialSystem parse_system(std::string_view text) {
  Parser parser(text, 0);
  return parser.parse_whole_system();
}

}  // namespace polyeval::poly
