#include "colop/ir/parse.h"

#include <cctype>
#include <charconv>
#include <cstdint>
#include <limits>
#include <utility>

#include "colop/support/error.h"

namespace colop::ir {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Program parse() {
    Program prog;
    skip_ws();
    COLOP_REQUIRE(!eof(), "parse: empty program");
    for (;;) {
      parse_stage(prog);
      skip_ws();
      if (eof()) break;
      expect(';');
    }
    return prog;
  }

 private:
  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return eof() ? '\0' : text_[pos_]; }

  void skip_ws() {
    while (!eof() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw_error("parse error at position " + std::to_string(pos_) + ": " + msg);
  }

  void expect(char c) {
    skip_ws();
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool accept(char c) {
    skip_ws();
    if (peek() != c) return false;
    ++pos_;
    return true;
  }

  std::string ident() {
    skip_ws();
    std::size_t start = pos_;
    while (!eof() && (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                      text_[pos_] == '_'))
      ++pos_;
    if (start == pos_) fail("expected identifier");
    return text_.substr(start, pos_ - start);
  }

  // Operator names may contain symbols: +, *, +mod97, f+, ...
  std::string op_name() {
    skip_ws();
    std::size_t start = pos_;
    while (!eof() && text_[pos_] != ')' && text_[pos_] != ',' &&
           !std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    if (start == pos_) fail("expected operator name");
    return text_.substr(start, pos_ - start);
  }

  // A `root=`/`h=` operand: a rank or request handle in [0, INT_MAX].
  int operand(const std::string& key) {
    skip_ws();
    const char* first = text_.data() + pos_;
    const char* last = text_.data() + text_.size();
    int value = 0;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (end == first) fail("expected integer");
    if (ec != std::errc{} || value < 0)
      fail("'" + key + "' must be an integer in [0, " +
           std::to_string(std::numeric_limits<int>::max()) + "]");
    pos_ += static_cast<std::size_t>(end - first);
    return value;
  }

  // One `key=value` argument the row allows; each key at most once.
  void key_value(const KindRow& row, KindArgs& args, bool (&seen)[2]) {
    const std::string key = ident();
    const bool root = row.root_arg && key == "root";
    if (!root && !(row.handle_arg && key == "h"))
      fail(row.root_arg && row.handle_arg ? "expected 'root' or 'h'"
           : row.root_arg                 ? "expected 'root'"
                                          : "expected 'h'");
    if (std::exchange(seen[root ? 0 : 1], true))
      fail("repeated argument '" + key + "'");
    expect('=');
    (root ? args.root : args.handle) = operand(key);
  }

  // keyword [ '(' [label] key=value... ')' ]: the row says which parts the
  // kind has; each key it allows may follow once, after a ',' unless it is
  // the first argument.
  void parse_stage(Program& prog) {
    const std::string kw = ident();
    const KindRow* row = textual_row(kw);
    if (row == nullptr) fail("unknown stage '" + kw + "'");
    KindArgs args;
    std::string fn;
    int keys = int{row->root_arg} + int{row->handle_arg};
    bool seen[2] = {false, false};
    if (row->label != Label::none || accept('(')) {
      if (row->label == Label::none) {
        key_value(*row, args, seen);
        --keys;
      } else {
        expect('(');
        if (row->label == Label::op)
          args.op = parse_op(op_name());
        else
          fn = ident();
      }
      for (; keys > 0 && accept(','); --keys) key_value(*row, args, seen);
      expect(')');
    }
    if (row->label == Label::fn) args.fn = map_fn(fn);
    prog.push(row->make(std::move(args)));
  }

  ElemFn map_fn(const std::string& name) const {
    if (name == "pair") return fn_pair();
    if (name == "triple") return fn_triple();
    if (name == "quadruple") return fn_quadruple();
    if (name == "pi1") return fn_proj1();
    if (name == "id") return fn_id();
    fail("unknown map function '" + name +
         "' (textual programs support pair/triple/quadruple/pi1/id)");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

BinOpPtr parse_op(const std::string& name) {
  if (name == "+") return op_add();
  if (name == "*") return op_mul();
  if (name == "max") return op_max();
  if (name == "min") return op_min();
  if (name == "band") return op_band();
  if (name == "bor") return op_bor();
  if (name == "gcd") return op_gcd();
  if (name == "f+") return op_fadd();
  if (name == "f*") return op_fmul();
  if (name == "mat2") return op_mat2();
  if (name == "first") return op_first();
  if (name.rfind("+mod", 0) == 0 || name.rfind("*mod", 0) == 0) {
    // The whole rest is the modulus: digits only, in [1, INT64_MAX].
    const char* first = name.data() + 4;
    const char* last = name.data() + name.size();
    std::int64_t m = 0;
    const auto [end, ec] = std::from_chars(first, last, m);
    if (first == last || !std::isdigit(static_cast<unsigned char>(*first)) ||
        ec != std::errc{} || end != last || m <= 0)
      throw_error("operator '" + name + "': the modulus must be an integer in [1, " +
                  std::to_string(std::numeric_limits<std::int64_t>::max()) + "]");
    return name[0] == '+' ? op_modadd(m) : op_modmul(m);
  }
  throw_error("unknown operator '" + name + "'");
}

Program parse_program(const std::string& text) { return Parser(text).parse(); }

}  // namespace colop::ir
