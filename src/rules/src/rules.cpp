#include "colop/rules/rules.h"

#include <algorithm>

#include "colop/ir/shapes.h"
#include "colop/rules/derived_ops.h"

namespace colop::rules {
namespace {

using ir::Program;
using ir::Stage;
using ir::StagePtr;

// Typed window accessors: nullptr when out of range or kind mismatch.
template <typename S>
const S* stage_as(const Program& prog, std::size_t i, Stage::Kind k) {
  if (i >= prog.size()) return nullptr;
  const Stage& s = prog.stage(i);
  if (s.kind() != k) return nullptr;
  return static_cast<const S*>(&s);
}
const ir::ScanStage* as_scan(const Program& p, std::size_t i) {
  return stage_as<ir::ScanStage>(p, i, Stage::Kind::Scan);
}
const ir::ReduceStage* as_reduce(const Program& p, std::size_t i) {
  return stage_as<ir::ReduceStage>(p, i, Stage::Kind::Reduce);
}
const ir::AllReduceStage* as_allreduce(const Program& p, std::size_t i) {
  return stage_as<ir::AllReduceStage>(p, i, Stage::Kind::AllReduce);
}
const ir::BcastStage* as_bcast(const Program& p, std::size_t i) {
  return stage_as<ir::BcastStage>(p, i, Stage::Kind::Bcast);
}

// Rules apply at ANY uniform element width w (user operators may work on
// tuples, e.g. 3-word moments triples); the replacement's derived stages
// then carry 2w / 3w / 4w words.  Derived operators never re-declare
// commutativity or distributivity, so rules cannot re-match their own
// output.
bool plain(const ir::ScanStage* s) { return s != nullptr; }
bool plain(const ir::ReduceStage* s) { return s != nullptr; }
bool plain(const ir::AllReduceStage* s) { return s != nullptr; }

bool same_op(const ir::BinOpPtr& a, const ir::BinOpPtr& b) {
  return a->name() == b->name();
}

std::string ops_note(const ir::BinOpPtr& otimes, const ir::BinOpPtr& oplus) {
  return "x=" + otimes->name() + ", +=" + oplus->name();
}

// ---------------------------------------------------------------------
// Reduction rules
// ---------------------------------------------------------------------

class Sr2Reduction final : public Rule {
 public:
  [[nodiscard]] std::string name() const override { return "SR2-Reduction"; }
  [[nodiscard]] std::string description() const override {
    return "scan(x) ; [all]reduce(+)  --{x distributes over +}-->  "
           "map(pair) ; [all]reduce(op_sr2) ; map(pi1)";
  }
  [[nodiscard]] std::optional<RuleMatch> match(const Program& prog,
                                               std::size_t at) const override {
    const auto* sc = as_scan(prog, at);
    if (!plain(sc)) return std::nullopt;
    const auto* red = as_reduce(prog, at + 1);
    const auto* ared = as_allreduce(prog, at + 1);
    if (!plain(red) && !plain(ared)) return std::nullopt;
    const ir::BinOpPtr oplus = red ? red->op : ared->op;
    const int w = sc->words;
    if ((red ? red->words : ared->words) != w) {
      reject("element widths differ");
      return std::nullopt;
    }
    if (!sc->op->distributes_over(*oplus)) {
      reject(sc->op->name() + " does not distribute over " + oplus->name());
      return std::nullopt;
    }

    RuleMatch m;
    m.rule_name = name();
    m.first = at;
    m.count = 2;
    auto sr2 = make_op_sr2(sc->op, oplus);
    m.replacement.push_back(std::make_shared<ir::MapStage>(ir::fn_pair()));
    if (red) {
      m.replacement.push_back(
          std::make_shared<ir::ReduceStage>(std::move(sr2), red->root, 2 * w));
      m.equivalence = Equivalence::root_only;
      m.root = red->root;
    } else {
      m.replacement.push_back(
          std::make_shared<ir::AllReduceStage>(std::move(sr2), 2 * w));
      m.equivalence = Equivalence::full;
    }
    m.replacement.push_back(std::make_shared<ir::MapStage>(ir::fn_proj1()));
    m.note = ops_note(sc->op, oplus);
    return m;
  }
};

class SrReduction final : public Rule {
 public:
  [[nodiscard]] std::string name() const override { return "SR-Reduction"; }
  [[nodiscard]] std::string description() const override {
    return "scan(+) ; [all]reduce(+)  --{+ commutative}-->  "
           "map(pair) ; [all]reduce_balanced(op_sr) ; map(pi1)";
  }
  [[nodiscard]] std::optional<RuleMatch> match(const Program& prog,
                                               std::size_t at) const override {
    const auto* sc = as_scan(prog, at);
    if (!plain(sc)) return std::nullopt;
    const auto* red = as_reduce(prog, at + 1);
    const auto* ared = as_allreduce(prog, at + 1);
    if (!plain(red) && !plain(ared)) return std::nullopt;
    const ir::BinOpPtr oplus = red ? red->op : ared->op;
    const int w = sc->words;
    if ((red ? red->words : ared->words) != w) {
      reject("element widths differ");
      return std::nullopt;
    }
    if (!same_op(sc->op, oplus)) {
      reject("scan and reduce operators differ");
      return std::nullopt;
    }
    if (!oplus->commutative()) {
      reject(oplus->name() + " is not commutative");
      return std::nullopt;
    }

    RuleMatch m;
    m.rule_name = name();
    m.first = at;
    m.count = 2;
    m.replacement.push_back(std::make_shared<ir::MapStage>(ir::fn_pair()));
    if (red) {
      m.replacement.push_back(std::make_shared<ir::ReduceBalancedStage>(
          make_op_sr(oplus, w), red->root));
      m.equivalence = Equivalence::root_only;
      m.root = red->root;
    } else {
      m.replacement.push_back(std::make_shared<ir::AllReduceBalancedStage>(
          make_op_sr(oplus, w)));
      m.equivalence = Equivalence::full;
    }
    m.replacement.push_back(std::make_shared<ir::MapStage>(ir::fn_proj1()));
    m.note = "+=" + oplus->name();
    return m;
  }
};

// ---------------------------------------------------------------------
// Scan rules
// ---------------------------------------------------------------------

class Ss2Scan final : public Rule {
 public:
  [[nodiscard]] std::string name() const override { return "SS2-Scan"; }
  [[nodiscard]] std::string description() const override {
    return "scan(x) ; scan(+)  --{x distributes over +}-->  "
           "map(pair) ; scan(op_sr2) ; map(pi1)";
  }
  [[nodiscard]] std::optional<RuleMatch> match(const Program& prog,
                                               std::size_t at) const override {
    const auto* s1 = as_scan(prog, at);
    const auto* s2 = as_scan(prog, at + 1);
    if (!plain(s1) || !plain(s2)) return std::nullopt;
    if (s1->words != s2->words) {
      reject("element widths differ");
      return std::nullopt;
    }
    if (!s1->op->distributes_over(*s2->op)) {
      reject(s1->op->name() + " does not distribute over " + s2->op->name());
      return std::nullopt;
    }

    RuleMatch m;
    m.rule_name = name();
    m.first = at;
    m.count = 2;
    m.replacement.push_back(std::make_shared<ir::MapStage>(ir::fn_pair()));
    m.replacement.push_back(std::make_shared<ir::ScanStage>(
        make_op_sr2(s1->op, s2->op), 2 * s1->words));
    m.replacement.push_back(std::make_shared<ir::MapStage>(ir::fn_proj1()));
    m.equivalence = Equivalence::full;
    m.note = ops_note(s1->op, s2->op);
    return m;
  }
};

class SsScan final : public Rule {
 public:
  [[nodiscard]] std::string name() const override { return "SS-Scan"; }
  [[nodiscard]] std::string description() const override {
    return "scan(+) ; scan(+)  --{+ commutative}-->  "
           "map(quadruple) ; scan_balanced(op_ss) ; map(pi1)";
  }
  [[nodiscard]] std::optional<RuleMatch> match(const Program& prog,
                                               std::size_t at) const override {
    const auto* s1 = as_scan(prog, at);
    const auto* s2 = as_scan(prog, at + 1);
    if (!plain(s1) || !plain(s2)) return std::nullopt;
    if (s1->words != s2->words) {
      reject("element widths differ");
      return std::nullopt;
    }
    if (!same_op(s1->op, s2->op)) {
      reject("scan operators differ");
      return std::nullopt;
    }
    if (!s1->op->commutative()) {
      reject(s1->op->name() + " is not commutative");
      return std::nullopt;
    }

    RuleMatch m;
    m.rule_name = name();
    m.first = at;
    m.count = 2;
    m.replacement.push_back(std::make_shared<ir::MapStage>(ir::fn_quadruple()));
    m.replacement.push_back(std::make_shared<ir::ScanBalancedStage>(
        make_op_ss(s1->op, s1->words)));
    m.replacement.push_back(std::make_shared<ir::MapStage>(ir::fn_proj1()));
    m.equivalence = Equivalence::full;
    m.note = "+=" + s1->op->name();
    return m;
  }
};

// ---------------------------------------------------------------------
// Comcast rules
// ---------------------------------------------------------------------

class BsComcast final : public Rule {
 public:
  [[nodiscard]] std::string name() const override { return "BS-Comcast"; }
  [[nodiscard]] std::string description() const override {
    return "bcast ; scan(+)  -->  bcast ; map#(op_comp)";
  }
  [[nodiscard]] std::optional<RuleMatch> match(const Program& prog,
                                               std::size_t at) const override {
    const auto* bc = as_bcast(prog, at);
    const auto* sc = as_scan(prog, at + 1);
    if (!bc || !plain(sc)) return std::nullopt;

    RuleMatch m;
    m.rule_name = name();
    m.first = at;
    m.count = 2;
    m.replacement.push_back(std::make_shared<ir::BcastStage>(bc->root, bc->words));
    m.replacement.push_back(
        std::make_shared<ir::MapIndexedStage>(make_op_comp_bs(sc->op)));
    m.equivalence = Equivalence::full;
    m.note = "+=" + sc->op->name();
    return m;
  }
};

class Bss2Comcast final : public Rule {
 public:
  [[nodiscard]] std::string name() const override { return "BSS2-Comcast"; }
  [[nodiscard]] std::string description() const override {
    return "bcast ; scan(x) ; scan(+)  --{x distributes over +}-->  "
           "bcast ; map#(op_comp)";
  }
  [[nodiscard]] std::optional<RuleMatch> match(const Program& prog,
                                               std::size_t at) const override {
    const auto* bc = as_bcast(prog, at);
    const auto* s1 = as_scan(prog, at + 1);
    const auto* s2 = as_scan(prog, at + 2);
    if (!bc || !plain(s1) || !plain(s2)) return std::nullopt;
    if (!s1->op->distributes_over(*s2->op)) {
      reject(s1->op->name() + " does not distribute over " + s2->op->name());
      return std::nullopt;
    }

    RuleMatch m;
    m.rule_name = name();
    m.first = at;
    m.count = 3;
    m.replacement.push_back(std::make_shared<ir::BcastStage>(bc->root, bc->words));
    m.replacement.push_back(std::make_shared<ir::MapIndexedStage>(
        make_op_comp_bss2(s1->op, s2->op)));
    m.equivalence = Equivalence::full;
    m.note = ops_note(s1->op, s2->op);
    return m;
  }
};

class BssComcast final : public Rule {
 public:
  [[nodiscard]] std::string name() const override { return "BSS-Comcast"; }
  [[nodiscard]] std::string description() const override {
    return "bcast ; scan(+) ; scan(+)  --{+ commutative}-->  "
           "bcast ; map#(op_comp)";
  }
  [[nodiscard]] std::optional<RuleMatch> match(const Program& prog,
                                               std::size_t at) const override {
    const auto* bc = as_bcast(prog, at);
    const auto* s1 = as_scan(prog, at + 1);
    const auto* s2 = as_scan(prog, at + 2);
    if (!bc || !plain(s1) || !plain(s2)) return std::nullopt;
    if (!same_op(s1->op, s2->op)) {
      reject("scan operators differ");
      return std::nullopt;
    }
    if (!s1->op->commutative()) {
      reject(s1->op->name() + " is not commutative");
      return std::nullopt;
    }

    RuleMatch m;
    m.rule_name = name();
    m.first = at;
    m.count = 3;
    m.replacement.push_back(std::make_shared<ir::BcastStage>(bc->root, bc->words));
    m.replacement.push_back(
        std::make_shared<ir::MapIndexedStage>(make_op_comp_bss(s1->op)));
    m.equivalence = Equivalence::full;
    m.note = "+=" + s1->op->name();
    return m;
  }
};

// ---------------------------------------------------------------------
// Local rules (root must be processor 0, the paper's "first processor")
// ---------------------------------------------------------------------

class BrLocal final : public Rule {
 public:
  [[nodiscard]] std::string name() const override { return "BR-Local"; }
  [[nodiscard]] std::string description() const override {
    return "bcast ; reduce(+)  -->  iter(op_br)";
  }
  [[nodiscard]] std::optional<RuleMatch> match(const Program& prog,
                                               std::size_t at) const override {
    const auto* bc = as_bcast(prog, at);
    const auto* red = as_reduce(prog, at + 1);
    if (!bc || !plain(red)) return std::nullopt;
    if (bc->root != 0 || red->root != 0) {
      reject("roots must be processor 0");
      return std::nullopt;
    }

    RuleMatch m;
    m.rule_name = name();
    m.first = at;
    m.count = 2;
    m.replacement.push_back(std::make_shared<ir::IterStage>(
        make_op_br(red->op), make_general_br(red->op)));
    m.equivalence = Equivalence::root_only;
    m.root = 0;
    m.note = "+=" + red->op->name();
    return m;
  }
};

class Bsr2Local final : public Rule {
 public:
  [[nodiscard]] std::string name() const override { return "BSR2-Local"; }
  [[nodiscard]] std::string description() const override {
    return "bcast ; scan(x) ; reduce(+)  --{x distributes over +}-->  "
           "map(pair) ; iter(op_bsr2) ; map(pi1)";
  }
  [[nodiscard]] std::optional<RuleMatch> match(const Program& prog,
                                               std::size_t at) const override {
    const auto* bc = as_bcast(prog, at);
    const auto* sc = as_scan(prog, at + 1);
    const auto* red = as_reduce(prog, at + 2);
    if (!bc || !plain(sc) || !plain(red)) return std::nullopt;
    if (bc->root != 0 || red->root != 0) {
      reject("roots must be processor 0");
      return std::nullopt;
    }
    if (!sc->op->distributes_over(*red->op)) {
      reject(sc->op->name() + " does not distribute over " + red->op->name());
      return std::nullopt;
    }

    RuleMatch m;
    m.rule_name = name();
    m.first = at;
    m.count = 3;
    m.replacement.push_back(std::make_shared<ir::MapStage>(ir::fn_pair()));
    m.replacement.push_back(std::make_shared<ir::IterStage>(
        make_op_bsr2(sc->op, red->op), make_general_bsr2(sc->op, red->op)));
    m.replacement.push_back(std::make_shared<ir::MapStage>(ir::fn_proj1()));
    m.equivalence = Equivalence::root_only;
    m.root = 0;
    m.note = ops_note(sc->op, red->op);
    return m;
  }
};

class BsrLocal final : public Rule {
 public:
  [[nodiscard]] std::string name() const override { return "BSR-Local"; }
  [[nodiscard]] std::string description() const override {
    return "bcast ; scan(+) ; reduce(+)  --{+ commutative}-->  "
           "map(pair) ; iter(op_bsr) ; map(pi1)";
  }
  [[nodiscard]] std::optional<RuleMatch> match(const Program& prog,
                                               std::size_t at) const override {
    const auto* bc = as_bcast(prog, at);
    const auto* sc = as_scan(prog, at + 1);
    const auto* red = as_reduce(prog, at + 2);
    if (!bc || !plain(sc) || !plain(red)) return std::nullopt;
    if (bc->root != 0 || red->root != 0) {
      reject("roots must be processor 0");
      return std::nullopt;
    }
    if (!same_op(sc->op, red->op)) {
      reject("scan and reduce operators differ");
      return std::nullopt;
    }
    if (!red->op->commutative()) {
      reject(red->op->name() + " is not commutative");
      return std::nullopt;
    }

    RuleMatch m;
    m.rule_name = name();
    m.first = at;
    m.count = 3;
    m.replacement.push_back(std::make_shared<ir::MapStage>(ir::fn_pair()));
    m.replacement.push_back(std::make_shared<ir::IterStage>(
        make_op_bsr(red->op), make_general_bsr(red->op)));
    m.replacement.push_back(std::make_shared<ir::MapStage>(ir::fn_proj1()));
    m.equivalence = Equivalence::root_only;
    m.root = 0;
    m.note = "+=" + red->op->name();
    return m;
  }
};

class CrAlllocal final : public Rule {
 public:
  [[nodiscard]] std::string name() const override { return "CR-Alllocal"; }
  [[nodiscard]] std::string description() const override {
    return "bcast ; allreduce(+)  -->  iter(op_br) ; bcast";
  }
  [[nodiscard]] std::optional<RuleMatch> match(const Program& prog,
                                               std::size_t at) const override {
    const auto* bc = as_bcast(prog, at);
    const auto* red = as_allreduce(prog, at + 1);
    if (!bc || !plain(red)) return std::nullopt;
    if (bc->root != 0) {
      reject("bcast root must be processor 0");
      return std::nullopt;
    }

    RuleMatch m;
    m.rule_name = name();
    m.first = at;
    m.count = 2;
    m.replacement.push_back(std::make_shared<ir::IterStage>(
        make_op_br(red->op), make_general_br(red->op)));
    m.replacement.push_back(std::make_shared<ir::BcastStage>(0));
    m.equivalence = Equivalence::full;
    m.note = "+=" + red->op->name();
    return m;
  }
};

class Bsr2Alllocal final : public Rule {
 public:
  [[nodiscard]] std::string name() const override { return "BSR2-Alllocal"; }
  [[nodiscard]] std::string description() const override {
    return "bcast ; scan(x) ; allreduce(+)  --{x distributes over +}-->  "
           "map(pair) ; iter(op_bsr2) ; map(pi1) ; bcast";
  }
  [[nodiscard]] std::optional<RuleMatch> match(const Program& prog,
                                               std::size_t at) const override {
    const auto* bc = as_bcast(prog, at);
    const auto* sc = as_scan(prog, at + 1);
    const auto* red = as_allreduce(prog, at + 2);
    if (!bc || !plain(sc) || !plain(red)) return std::nullopt;
    if (bc->root != 0) {
      reject("bcast root must be processor 0");
      return std::nullopt;
    }
    if (!sc->op->distributes_over(*red->op)) {
      reject(sc->op->name() + " does not distribute over " + red->op->name());
      return std::nullopt;
    }

    RuleMatch m;
    m.rule_name = name();
    m.first = at;
    m.count = 3;
    m.replacement.push_back(std::make_shared<ir::MapStage>(ir::fn_pair()));
    m.replacement.push_back(std::make_shared<ir::IterStage>(
        make_op_bsr2(sc->op, red->op), make_general_bsr2(sc->op, red->op)));
    m.replacement.push_back(std::make_shared<ir::MapStage>(ir::fn_proj1()));
    m.replacement.push_back(std::make_shared<ir::BcastStage>(0));
    m.equivalence = Equivalence::full;
    m.note = ops_note(sc->op, red->op);
    return m;
  }
};

class BsrAlllocal final : public Rule {
 public:
  [[nodiscard]] std::string name() const override { return "BSR-Alllocal"; }
  [[nodiscard]] std::string description() const override {
    return "bcast ; scan(+) ; allreduce(+)  --{+ commutative}-->  "
           "map(pair) ; iter(op_bsr) ; map(pi1) ; bcast";
  }
  [[nodiscard]] std::optional<RuleMatch> match(const Program& prog,
                                               std::size_t at) const override {
    const auto* bc = as_bcast(prog, at);
    const auto* sc = as_scan(prog, at + 1);
    const auto* red = as_allreduce(prog, at + 2);
    if (!bc || !plain(sc) || !plain(red)) return std::nullopt;
    if (bc->root != 0) {
      reject("bcast root must be processor 0");
      return std::nullopt;
    }
    if (!same_op(sc->op, red->op)) {
      reject("scan and allreduce operators differ");
      return std::nullopt;
    }
    if (!red->op->commutative()) {
      reject(red->op->name() + " is not commutative");
      return std::nullopt;
    }

    RuleMatch m;
    m.rule_name = name();
    m.first = at;
    m.count = 3;
    m.replacement.push_back(std::make_shared<ir::MapStage>(ir::fn_pair()));
    m.replacement.push_back(std::make_shared<ir::IterStage>(
        make_op_bsr(red->op), make_general_bsr(red->op)));
    m.replacement.push_back(std::make_shared<ir::MapStage>(ir::fn_proj1()));
    m.replacement.push_back(std::make_shared<ir::BcastStage>(0));
    m.equivalence = Equivalence::full;
    m.note = "+=" + red->op->name();
    return m;
  }
};

// ---------------------------------------------------------------------
// Derived combination rules (Section 6's input/output-behaviour analysis)
// ---------------------------------------------------------------------

class RbAllreduce final : public Rule {
 public:
  [[nodiscard]] std::string name() const override { return "RB-Allreduce"; }
  [[nodiscard]] std::string description() const override {
    return "reduce(+) ; bcast  --{same root}-->  allreduce(+)";
  }
  [[nodiscard]] std::optional<RuleMatch> match(const Program& prog,
                                               std::size_t at) const override {
    const auto* bc = as_bcast(prog, at + 1);
    if (!bc) return std::nullopt;

    RuleMatch m;
    m.rule_name = name();
    m.first = at;
    m.count = 2;
    m.equivalence = Equivalence::full;
    if (const auto* red = as_reduce(prog, at)) {
      if (red->root != bc->root) {
        reject("reduce root differs from bcast root");
        return std::nullopt;
      }
      m.replacement.push_back(
          std::make_shared<ir::AllReduceStage>(red->op, red->words));
      m.note = "+=" + red->op->name();
      return m;
    }
    if (at < prog.size() &&
        prog.stage(at).kind() == Stage::Kind::ReduceBalanced) {
      const auto& red = static_cast<const ir::ReduceBalancedStage&>(prog.stage(at));
      if (red.root != bc->root) {
        reject("reduce root differs from bcast root");
        return std::nullopt;
      }
      m.replacement.push_back(
          std::make_shared<ir::AllReduceBalancedStage>(red.op));
      m.note = "op=" + red.op.name;
      return m;
    }
    return std::nullopt;
  }
};

class SbElim final : public Rule {
 public:
  [[nodiscard]] std::string name() const override { return "SB-Elim"; }
  [[nodiscard]] std::string description() const override {
    return "scan(+) ; bcast  --{root 0}-->  bcast   (the scan is dead: the "
           "first processor's scan value is its own input)";
  }
  [[nodiscard]] std::optional<RuleMatch> match(const Program& prog,
                                               std::size_t at) const override {
    const auto* sc = as_scan(prog, at);
    const auto* bc = as_bcast(prog, at + 1);
    if (!sc || !bc) return std::nullopt;
    if (bc->root != 0) {
      reject("bcast root must be processor 0");
      return std::nullopt;
    }

    RuleMatch m;
    m.rule_name = name();
    m.first = at;
    m.count = 2;
    m.replacement.push_back(std::make_shared<ir::BcastStage>(0, bc->words));
    m.equivalence = Equivalence::full;
    m.note = "+=" + sc->op->name();
    return m;
  }
};

class BbElim final : public Rule {
 public:
  [[nodiscard]] std::string name() const override { return "BB-Elim"; }
  [[nodiscard]] std::string description() const override {
    return "bcast ; bcast  -->  bcast   (after the first broadcast every "
           "processor already holds the second root's value)";
  }
  [[nodiscard]] std::optional<RuleMatch> match(const Program& prog,
                                               std::size_t at) const override {
    const auto* b1 = as_bcast(prog, at);
    const auto* b2 = as_bcast(prog, at + 1);
    if (!b1 || !b2) return std::nullopt;

    RuleMatch m;
    m.rule_name = name();
    m.first = at;
    m.count = 2;
    m.replacement.push_back(std::make_shared<ir::BcastStage>(b1->root, b1->words));
    m.equivalence = Equivalence::full;
    return m;
  }
};

class MbSwap final : public Rule {
 public:
  [[nodiscard]] std::string name() const override { return "MB-Swap"; }
  [[nodiscard]] std::string description() const override {
    return "map(f) ; bcast  -->  bcast ; map(f)   (rank-uniform maps "
           "commute with broadcast; enables seam fusions)";
  }
  [[nodiscard]] std::optional<RuleMatch> match(const Program& prog,
                                               std::size_t at) const override {
    if (at >= prog.size() || prog.stage(at).kind() != Stage::Kind::Map)
      return std::nullopt;
    const auto* bc = as_bcast(prog, at + 1);
    if (!bc) return std::nullopt;
    const auto& map_stage = static_cast<const ir::MapStage&>(prog.stage(at));

    // The swapped bcast transmits the PRE-map element width.
    int pre_words = 0;
    try {
      pre_words = ir::shape_before(prog, at).words();
    } catch (const Error&) {
      reject("shape inference failed before the map");
      return std::nullopt;  // shape-inconsistent program: don't touch it
    }

    RuleMatch m;
    m.rule_name = name();
    m.first = at;
    m.count = 2;
    m.replacement.push_back(
        std::make_shared<ir::BcastStage>(bc->root, pre_words));
    m.replacement.push_back(std::make_shared<ir::MapStage>(map_stage.fn));
    m.equivalence = Equivalence::full;
    m.note = "f=" + map_stage.fn.name;
    return m;
  }
};

// ---------------------------------------------------------------------
// Split-phase overlap rules
// ---------------------------------------------------------------------

// Request handles outstanding just before stage `at` (issue order kept).
std::vector<int> outstanding_before(const Program& prog, std::size_t at) {
  std::vector<int> out;
  for (std::size_t i = 0; i < at && i < prog.size(); ++i) {
    const Stage& s = prog.stage(i);
    if (s.row().role == ir::WindowRole::istart) {
      out.push_back(s.request_handle());
    } else if (s.row().role == ir::WindowRole::wait) {
      const auto it = std::ranges::find(out, s.request_handle());
      if (it != out.end()) out.erase(it);
    }
  }
  return out;
}

// Smallest handle no istart/wait anywhere in the program uses.
int fresh_handle(const Program& prog) {
  int max_used = 0;
  for (const auto& s : prog.stages())
    max_used = std::max(max_used, s->request_handle());
  return max_used + 1;
}

class OverlapSplit final : public Rule {
 public:
  [[nodiscard]] std::string name() const override { return "Overlap-Split"; }
  [[nodiscard]] std::string description() const override {
    return "C ; map(f)  -->  istart_C(h) ; map(f) ; wait(h)   for C in "
           "{reduce, allreduce, bcast} — the executor hides C's "
           "communication behind the independent map; legal when no other "
           "request is in flight at the seam";
  }
  [[nodiscard]] std::optional<RuleMatch> match(const Program& prog,
                                               std::size_t at) const override {
    if (at + 1 >= prog.size()) return std::nullopt;
    const Stage& c = prog.stage(at);
    const ir::KindRow& row = c.row();
    if (row.role != ir::WindowRole::collective || row.twin == c.kind() ||
        prog.stage(at + 1).row().role != ir::WindowRole::elementwise)
      return std::nullopt;
    if (!outstanding_before(prog, at).empty()) {
      reject("another nonblocking request is already in flight here");
      return std::nullopt;
    }

    const int h = fresh_handle(prog);
    RuleMatch m;
    m.rule_name = name();
    m.first = at;
    m.count = 2;
    m.replacement.push_back(ir::kind_row(row.twin).make(
        {.op = c.binop(), .root = c.root_rank(), .handle = h,
         .words = c.wire_words()}));
    m.note = "C=" + std::string(row.keyword);
    if (c.binop()) m.note += "(" + c.label() + ")";
    m.replacement.push_back(prog.stages()[at + 1]);
    m.replacement.push_back(std::make_shared<ir::WaitStage>(h));
    m.equivalence = Equivalence::full;
    return m;
  }
};

class WaitSink final : public Rule {
 public:
  [[nodiscard]] std::string name() const override { return "Wait-Sink"; }
  [[nodiscard]] std::string description() const override {
    return "wait(h) ; map(f)  -->  map(f) ; wait(h)   — widen an overlap "
           "window past elementwise work that does not need the request's "
           "completion";
  }
  [[nodiscard]] std::optional<RuleMatch> match(const Program& prog,
                                               std::size_t at) const override {
    if (at + 1 >= prog.size() ||
        prog.stage(at).row().role != ir::WindowRole::wait ||
        prog.stage(at + 1).row().role != ir::WindowRole::elementwise)
      return std::nullopt;

    RuleMatch m;
    m.rule_name = name();
    m.first = at;
    m.count = 2;
    m.replacement.push_back(prog.stages()[at + 1]);
    m.replacement.push_back(prog.stages()[at]);
    m.equivalence = Equivalence::full;
    m.note = "h=" + std::to_string(prog.stage(at).request_handle());
    return m;
  }
};

}  // namespace

namespace {
thread_local std::string g_reject_reason;  // explain-mode diagnostic slot
}  // namespace

void Rule::reject(std::string reason) { g_reject_reason = std::move(reason); }

std::string Rule::take_reject() {
  std::string r = std::move(g_reject_reason);
  g_reject_reason.clear();
  return r;
}

std::vector<RuleMatch> Rule::matches(const ir::Program& prog) const {
  std::vector<RuleMatch> out;
  for (std::size_t i = 0; i < prog.size(); ++i)
    if (auto m = match(prog, i)) out.push_back(std::move(*m));
  return out;
}

RulePtr rule_sr2_reduction() { return std::make_shared<Sr2Reduction>(); }
RulePtr rule_sr_reduction() { return std::make_shared<SrReduction>(); }
RulePtr rule_ss2_scan() { return std::make_shared<Ss2Scan>(); }
RulePtr rule_ss_scan() { return std::make_shared<SsScan>(); }
RulePtr rule_bs_comcast() { return std::make_shared<BsComcast>(); }
RulePtr rule_bss2_comcast() { return std::make_shared<Bss2Comcast>(); }
RulePtr rule_bss_comcast() { return std::make_shared<BssComcast>(); }
RulePtr rule_br_local() { return std::make_shared<BrLocal>(); }
RulePtr rule_bsr2_local() { return std::make_shared<Bsr2Local>(); }
RulePtr rule_bsr_local() { return std::make_shared<BsrLocal>(); }
RulePtr rule_cr_alllocal() { return std::make_shared<CrAlllocal>(); }
RulePtr rule_bsr2_alllocal() { return std::make_shared<Bsr2Alllocal>(); }
RulePtr rule_bsr_alllocal() { return std::make_shared<BsrAlllocal>(); }
RulePtr rule_rb_allreduce() { return std::make_shared<RbAllreduce>(); }
RulePtr rule_sb_elim() { return std::make_shared<SbElim>(); }
RulePtr rule_bb_elim() { return std::make_shared<BbElim>(); }
RulePtr rule_mb_swap() { return std::make_shared<MbSwap>(); }
RulePtr rule_overlap_split() { return std::make_shared<OverlapSplit>(); }
RulePtr rule_wait_sink() { return std::make_shared<WaitSink>(); }

std::vector<RulePtr> all_rules() {
  return {rule_sr2_reduction(), rule_sr_reduction(),  rule_ss2_scan(),
          rule_ss_scan(),       rule_bs_comcast(),    rule_bss2_comcast(),
          rule_bss_comcast(),   rule_br_local(),      rule_bsr2_local(),
          rule_bsr_local(),     rule_cr_alllocal(),   rule_bsr2_alllocal(),
          rule_bsr_alllocal(),  rule_rb_allreduce(),  rule_sb_elim(),
          rule_bb_elim(),       rule_mb_swap()};
}

std::vector<RulePtr> overlap_rules() {
  return {rule_overlap_split(), rule_wait_sink()};
}

bool masked_by_bcast(const ir::Program& prog, std::size_t after, int root) {
  for (std::size_t i = after; i < prog.size(); ++i) {
    const ir::Stage& s = prog.stage(i);
    if (s.kind() == ir::Stage::Kind::Map) continue;  // rank-uniform local
    if (const auto* bc = as_bcast(prog, i)) return bc->root == root;
    return false;
  }
  return false;
}

}  // namespace colop::rules
