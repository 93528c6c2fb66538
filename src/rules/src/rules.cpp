#include "colop/rules/rules.h"

#include <algorithm>

#include "colop/ir/shapes.h"
#include "colop/rules/derived_ops.h"
#include "colop/support/error.h"

namespace colop::rules {
namespace {

using ir::BinOpPtr;
using ir::Program;
using ir::Stage;
using ir::StagePtr;
using Kind = ir::Stage::Kind;

/// Stage `i` when it is in range and of kind `k`, else nullptr.
const Stage* stage_of(const Program& prog, std::size_t i, Kind k) {
  if (i >= prog.size() || prog.stage(i).kind() != k) return nullptr;
  return &prog.stage(i);
}

/// Declines a window whose shape matched: the failed condition is spelt
/// into *why only when the caller asked for it.
std::nullopt_t decline(std::string* why, const char* reason) {
  if (why != nullptr) *why = reason;
  return std::nullopt;
}
template <typename Spell>
std::nullopt_t decline(std::string* why, Spell spell) {
  if (why != nullptr) *why = spell();
  return std::nullopt;
}

// ---------------------------------------------------------------------
// The paper-shaped fusion rules (Section 3, Table 1)
// ---------------------------------------------------------------------

/// The collective a window ends with.
enum class Tail { none, reduce, allreduce, either };

/// The matched stages of a fusion window, as the row's builder sees them.
/// Rules apply at ANY uniform element width w (user operators may work on
/// tuples, e.g. 3-word moments triples); the replacement's derived stages
/// then carry 2w / 3w / 4w words.  Derived operators never re-declare
/// commutativity or distributivity, so rules cannot re-match their own
/// output.
struct Window {
  const Stage* bcast = nullptr;  ///< the leading bcast, if the row has one
  const Stage* tail = nullptr;   ///< the closing [all]reduce, if any
  BinOpPtr otimes;               ///< the first operator (x)
  BinOpPtr oplus;                ///< the last operator (+)
  int words = 0;                 ///< element width, from the first stage
};

/// A reduce tail leaves the result on its root only.
bool reduce_tail(const Window& w) {
  return w.tail != nullptr && w.tail->kind() == Kind::Reduce;
}

using Build = std::vector<StagePtr> (*)(const Window&);

/// A fusion row's window pattern: [bcast ;] scan^scans [; tail].
struct Fusion {
  bool bcast = false;
  int scans = 0;
  Tail tail = Tail::none;
  bool root0 = false;  ///< the bcast (and reduce) must root at processor 0
  Build build = nullptr;
};

using MatchFn = std::optional<RuleMatch> (*)(const RuleRow&, const Program&,
                                             std::size_t, std::string*);

}  // namespace

struct RuleRow {
  const char* name;
  const char* description;
  Law law;
  MatchFn match;
  Fusion fusion = {};            ///< read by match_fusion only
  const char* guard = nullptr;   ///< split-phase rows: the legality condition
};

namespace {

RuleMatch matched(const RuleRow& row, std::size_t at, std::size_t count) {
  RuleMatch m;
  m.rule_name = row.name;
  m.first = at;
  m.count = count;
  return m;
}

/// The one matcher of the fusion rows.  Checks run in a fixed order:
/// element widths, roots, same operator (commutative law), then the law.
std::optional<RuleMatch> match_fusion(const RuleRow& row, const Program& prog,
                                      std::size_t at, std::string* why) {
  const Fusion& f = row.fusion;
  Window w;
  std::size_t i = at;
  if (f.bcast && (w.bcast = stage_of(prog, i++, Kind::Bcast)) == nullptr)
    return std::nullopt;
  const Stage* scans[2] = {nullptr, nullptr};
  for (int k = 0; k < f.scans; ++k)
    if ((scans[k] = stage_of(prog, i++, Kind::Scan)) == nullptr)
      return std::nullopt;
  if (f.tail != Tail::none) {
    if (f.tail != Tail::allreduce) w.tail = stage_of(prog, i, Kind::Reduce);
    if (f.tail != Tail::reduce && w.tail == nullptr)
      w.tail = stage_of(prog, i, Kind::AllReduce);
    if (w.tail == nullptr) return std::nullopt;
    ++i;
  }
  const Stage& first = f.scans > 0 ? *scans[0] : *w.tail;
  const Stage& last = w.tail != nullptr ? *w.tail : *scans[f.scans - 1];
  w.otimes = first.binop();
  w.oplus = last.binop();
  w.words = (w.bcast != nullptr ? *w.bcast : first).wire_words();

  // Scan-led replacements size their fused stage from w, so both operator
  // stages must agree on it; a bcast-led replacement takes no width.
  if (w.bcast == nullptr && first.wire_words() != last.wire_words())
    return decline(why, "element widths differ");
  if (f.root0) {
    if (reduce_tail(w)) {
      if (w.bcast->root_rank() != 0 || w.tail->root_rank() != 0)
        return decline(why, "roots must be processor 0");
    } else if (w.bcast->root_rank() != 0) {
      return decline(why, "bcast root must be processor 0");
    }
  }
  if (row.law == Law::commutative) {
    if (w.otimes->name() != w.oplus->name())
      return decline(why, f.scans == 2            ? "scan operators differ"
                          : f.tail == Tail::allreduce
                              ? "scan and allreduce operators differ"
                              : "scan and reduce operators differ");
    if (!w.oplus->commutative())
      return decline(why,
                     [&] { return w.oplus->name() + " is not commutative"; });
  }
  if (row.law == Law::distributes && !w.otimes->distributes_over(*w.oplus))
    return decline(why, [&] {
      return w.otimes->name() + " does not distribute over " + w.oplus->name();
    });

  RuleMatch m = matched(row, at, i - at);
  m.replacement = f.build(w);
  if (reduce_tail(w)) {
    m.equivalence = Equivalence::root_only;
    m.root = w.tail->root_rank();
  }
  m.note = row.law == Law::distributes
               ? "x=" + w.otimes->name() + ", +=" + w.oplus->name()
               : "+=" + w.oplus->name();
  return m;
}

// Replacement pieces shared by the builders.
StagePtr bcast(int root, int words) {
  return std::make_shared<ir::BcastStage>(root, words);
}
/// map(tuple) ; fused ; map(pi1): the paper's wrapping of a fused operator.
std::vector<StagePtr> wrapped(ir::ElemFn tuple, StagePtr fused) {
  return {std::make_shared<ir::MapStage>(std::move(tuple)), std::move(fused),
          std::make_shared<ir::MapStage>(ir::fn_proj1())};
}
std::vector<StagePtr> paired(StagePtr fused) {
  return wrapped(ir::fn_pair(), std::move(fused));
}
/// `stages` and the Alllocal rules' closing bcast of the root's result.
std::vector<StagePtr> closing_bcast(const Window& w,
                                    std::vector<StagePtr> stages) {
  stages.push_back(bcast(0, w.words));
  return stages;
}
StagePtr iter_br(const Window& w) {
  return std::make_shared<ir::IterStage>(make_op_br(w.oplus),
                                         make_general_br(w.oplus));
}
StagePtr iter_bsr2(const Window& w) {
  return std::make_shared<ir::IterStage>(make_op_bsr2(w.otimes, w.oplus),
                                         make_general_bsr2(w.otimes, w.oplus));
}
StagePtr iter_bsr(const Window& w) {
  return std::make_shared<ir::IterStage>(make_op_bsr(w.oplus),
                                         make_general_bsr(w.oplus));
}
/// bcast ; map#(comp): the Comcast rules' compute-after-broadcast.
std::vector<StagePtr> comcast(const Window& w, ir::ElemIdxFn comp) {
  return {bcast(w.bcast->root_rank(), w.words),
          std::make_shared<ir::MapIndexedStage>(std::move(comp))};
}

// ---------------------------------------------------------------------
// The rules with a match of their own
// ---------------------------------------------------------------------

std::optional<RuleMatch> match_rb_allreduce(const RuleRow& row,
                                            const Program& prog,
                                            std::size_t at, std::string* why) {
  const Stage* bc = stage_of(prog, at + 1, Kind::Bcast);
  if (bc == nullptr) return std::nullopt;
  const Stage* red = stage_of(prog, at, Kind::Reduce);
  const Stage* bal = stage_of(prog, at, Kind::ReduceBalanced);
  if (red == nullptr && bal == nullptr) return std::nullopt;
  if ((red != nullptr ? red : bal)->root_rank() != bc->root_rank())
    return decline(why, "reduce root differs from bcast root");

  RuleMatch m = matched(row, at, 2);
  if (red != nullptr) {
    m.replacement.push_back(
        std::make_shared<ir::AllReduceStage>(red->binop(), red->wire_words()));
    m.note = "+=" + red->binop()->name();
  } else {
    const auto& op = static_cast<const ir::ReduceBalancedStage&>(*bal).op;
    m.replacement.push_back(std::make_shared<ir::AllReduceBalancedStage>(op));
    m.note = "op=" + op.name;
  }
  return m;
}

std::optional<RuleMatch> match_sb_elim(const RuleRow& row, const Program& prog,
                                       std::size_t at, std::string* why) {
  const Stage* sc = stage_of(prog, at, Kind::Scan);
  const Stage* bc = stage_of(prog, at + 1, Kind::Bcast);
  if (sc == nullptr || bc == nullptr) return std::nullopt;
  if (bc->root_rank() != 0)
    return decline(why, "bcast root must be processor 0");

  RuleMatch m = matched(row, at, 2);
  m.replacement.push_back(bcast(0, bc->wire_words()));
  m.note = "+=" + sc->binop()->name();
  return m;
}

std::optional<RuleMatch> match_bb_elim(const RuleRow& row, const Program& prog,
                                       std::size_t at, std::string* /*why*/) {
  const Stage* b1 = stage_of(prog, at, Kind::Bcast);
  if (b1 == nullptr || stage_of(prog, at + 1, Kind::Bcast) == nullptr)
    return std::nullopt;

  RuleMatch m = matched(row, at, 2);
  m.replacement.push_back(bcast(b1->root_rank(), b1->wire_words()));
  return m;
}

std::optional<RuleMatch> match_mb_swap(const RuleRow& row, const Program& prog,
                                       std::size_t at, std::string* why) {
  const Stage* map = stage_of(prog, at, Kind::Map);
  const Stage* bc = stage_of(prog, at + 1, Kind::Bcast);
  if (map == nullptr || bc == nullptr) return std::nullopt;

  // The swapped bcast transmits the PRE-map element width.
  int pre_words = 0;
  try {
    pre_words = ir::shape_before(prog, at).words();
  } catch (const Error&) {
    // Shape-inconsistent program: don't touch it.
    return decline(why, "shape inference failed before the map");
  }

  const auto& fn = static_cast<const ir::MapStage&>(*map).fn;
  RuleMatch m = matched(row, at, 2);
  m.replacement.push_back(bcast(bc->root_rank(), pre_words));
  m.replacement.push_back(std::make_shared<ir::MapStage>(fn));
  m.note = "f=" + fn.name;
  return m;
}

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

std::optional<RuleMatch> match_overlap_split(const RuleRow& row,
                                             const Program& prog,
                                             std::size_t at, std::string* why) {
  if (at + 1 >= prog.size()) return std::nullopt;
  const Stage& c = prog.stage(at);
  const ir::KindRow& kind = c.row();
  if (kind.role != ir::WindowRole::collective || kind.twin == c.kind() ||
      prog.stage(at + 1).row().role != ir::WindowRole::elementwise)
    return std::nullopt;
  if (!outstanding_before(prog, at).empty())
    return decline(why,
                   "another nonblocking request is already in flight here");

  const int h = fresh_handle(prog);
  RuleMatch m = matched(row, at, 2);
  m.replacement.push_back(ir::kind_row(kind.twin).make(
      {.op = c.binop(), .root = c.root_rank(), .handle = h,
       .words = c.wire_words()}));
  m.note = "C=" + std::string(kind.keyword);
  if (c.binop()) m.note += "(" + c.label() + ")";
  m.replacement.push_back(prog.stages()[at + 1]);
  m.replacement.push_back(std::make_shared<ir::WaitStage>(h));
  return m;
}

std::optional<RuleMatch> match_wait_sink(const RuleRow& row,
                                         const Program& prog, std::size_t at,
                                         std::string* /*why*/) {
  if (at + 1 >= prog.size() ||
      prog.stage(at).row().role != ir::WindowRole::wait ||
      prog.stage(at + 1).row().role != ir::WindowRole::elementwise)
    return std::nullopt;

  RuleMatch m = matched(row, at, 2);
  m.replacement.push_back(prog.stages()[at + 1]);
  m.replacement.push_back(prog.stages()[at]);
  m.note = "h=" + std::to_string(prog.stage(at).request_handle());
  return m;
}

// ---------------------------------------------------------------------
// The catalog: all_rules() in the paper's presentation order, then the
// split-phase overlap rules.
// ---------------------------------------------------------------------

constexpr std::ptrdiff_t kOverlapRows = 2;

constexpr RuleRow kCatalog[] = {
    // Reduction class
    {"SR2-Reduction",
     "scan(x) ; [all]reduce(+)  --{x distributes over +}-->  "
     "map(pair) ; [all]reduce(op_sr2) ; map(pi1)",
     Law::distributes, match_fusion,
     {.scans = 1, .tail = Tail::either, .build = [](const Window& w) {
        auto sr2 = make_op_sr2(w.otimes, w.oplus);
        const int words = 2 * w.words;
        if (!reduce_tail(w))
          return paired(
              std::make_shared<ir::AllReduceStage>(std::move(sr2), words));
        return paired(std::make_shared<ir::ReduceStage>(
            std::move(sr2), w.tail->root_rank(), words));
      }}},
    {"SR-Reduction",
     "scan(+) ; [all]reduce(+)  --{+ commutative}-->  "
     "map(pair) ; [all]reduce_balanced(op_sr) ; map(pi1)",
     Law::commutative, match_fusion,
     {.scans = 1, .tail = Tail::either, .build = [](const Window& w) {
        auto sr = make_op_sr(w.oplus, w.words);
        if (!reduce_tail(w))
          return paired(
              std::make_shared<ir::AllReduceBalancedStage>(std::move(sr)));
        return paired(std::make_shared<ir::ReduceBalancedStage>(
            std::move(sr), w.tail->root_rank()));
      }}},
    // Scan class
    {"SS2-Scan",
     "scan(x) ; scan(+)  --{x distributes over +}-->  "
     "map(pair) ; scan(op_sr2) ; map(pi1)",
     Law::distributes, match_fusion,
     {.scans = 2, .build = [](const Window& w) {
        return paired(std::make_shared<ir::ScanStage>(
            make_op_sr2(w.otimes, w.oplus), 2 * w.words));
      }}},
    {"SS-Scan",
     "scan(+) ; scan(+)  --{+ commutative}-->  "
     "map(quadruple) ; scan_balanced(op_ss) ; map(pi1)",
     Law::commutative, match_fusion,
     {.scans = 2, .build = [](const Window& w) {
        return wrapped(ir::fn_quadruple(),
                       std::make_shared<ir::ScanBalancedStage>(
                           make_op_ss(w.oplus, w.words)));
      }}},
    // Comcast class (compute-after-broadcast)
    {"BS-Comcast", "bcast ; scan(+)  -->  bcast ; map#(op_comp)",
     Law::associative, match_fusion,
     {.bcast = true, .scans = 1, .build = [](const Window& w) {
        return comcast(w, make_op_comp_bs(w.oplus));
      }}},
    {"BSS2-Comcast",
     "bcast ; scan(x) ; scan(+)  --{x distributes over +}-->  "
     "bcast ; map#(op_comp)",
     Law::distributes, match_fusion,
     {.bcast = true, .scans = 2, .build = [](const Window& w) {
        return comcast(w, make_op_comp_bss2(w.otimes, w.oplus));
      }}},
    {"BSS-Comcast",
     "bcast ; scan(+) ; scan(+)  --{+ commutative}-->  "
     "bcast ; map#(op_comp)",
     Law::commutative, match_fusion,
     {.bcast = true, .scans = 2, .build = [](const Window& w) {
        return comcast(w, make_op_comp_bss(w.oplus));
      }}},
    // Local class (root must be processor 0, the paper's "first processor")
    {"BR-Local", "bcast ; reduce(+)  -->  iter(op_br)", Law::associative,
     match_fusion,
     {.bcast = true, .tail = Tail::reduce, .root0 = true,
      .build = [](const Window& w) {
        return std::vector<StagePtr>{iter_br(w)};
      }}},
    {"BSR2-Local",
     "bcast ; scan(x) ; reduce(+)  --{x distributes over +}-->  "
     "map(pair) ; iter(op_bsr2) ; map(pi1)",
     Law::distributes, match_fusion,
     {.bcast = true, .scans = 1, .tail = Tail::reduce, .root0 = true,
      .build = [](const Window& w) { return paired(iter_bsr2(w)); }}},
    {"BSR-Local",
     "bcast ; scan(+) ; reduce(+)  --{+ commutative}-->  "
     "map(pair) ; iter(op_bsr) ; map(pi1)",
     Law::commutative, match_fusion,
     {.bcast = true, .scans = 1, .tail = Tail::reduce, .root0 = true,
      .build = [](const Window& w) { return paired(iter_bsr(w)); }}},
    {"CR-Alllocal", "bcast ; allreduce(+)  -->  iter(op_br) ; bcast",
     Law::associative, match_fusion,
     {.bcast = true, .tail = Tail::allreduce, .root0 = true,
      .build = [](const Window& w) { return closing_bcast(w, {iter_br(w)}); }}},
    {"BSR2-Alllocal",
     "bcast ; scan(x) ; allreduce(+)  --{x distributes over +}-->  "
     "map(pair) ; iter(op_bsr2) ; map(pi1) ; bcast",
     Law::distributes, match_fusion,
     {.bcast = true, .scans = 1, .tail = Tail::allreduce, .root0 = true,
      .build = [](const Window& w) {
        return closing_bcast(w, paired(iter_bsr2(w)));
      }}},
    {"BSR-Alllocal",
     "bcast ; scan(+) ; allreduce(+)  --{+ commutative}-->  "
     "map(pair) ; iter(op_bsr) ; map(pi1) ; bcast",
     Law::commutative, match_fusion,
     {.bcast = true, .scans = 1, .tail = Tail::allreduce, .root0 = true,
      .build = [](const Window& w) {
        return closing_bcast(w, paired(iter_bsr(w)));
      }}},
    // Derived combinations (Section 6's input/output-behaviour analysis)
    {"RB-Allreduce", "reduce(+) ; bcast  --{same root}-->  allreduce(+)",
     Law::structural, match_rb_allreduce},
    {"SB-Elim",
     "scan(+) ; bcast  --{root 0}-->  bcast   (the scan is dead: the "
     "first processor's scan value is its own input)",
     Law::structural, match_sb_elim},
    {"BB-Elim",
     "bcast ; bcast  -->  bcast   (after the first broadcast every "
     "processor already holds the second root's value)",
     Law::structural, match_bb_elim},
    {"MB-Swap",
     "map(f) ; bcast  -->  bcast ; map(f)   (rank-uniform maps "
     "commute with broadcast; enables seam fusions)",
     Law::structural, match_mb_swap},
    // Split-phase overlap rules
    {"Overlap-Split",
     "C ; map(f)  -->  istart_C(h) ; map(f) ; wait(h)   for C in "
     "{reduce, allreduce, bcast} — the executor hides C's "
     "communication behind the independent map; legal when no other "
     "request is in flight at the seam",
     Law::split_phase, match_overlap_split, {},
     "no request in flight at the seam; interior elementwise-local "
     "(V22x split-phase contracts hold)"},
    {"Wait-Sink",
     "wait(h) ; map(f)  -->  map(f) ; wait(h)   — widen an overlap "
     "window past elementwise work that does not need the request's "
     "completion",
     Law::split_phase, match_wait_sink, {},
     "sunk-past stage is elementwise-local and does not need the "
     "request's completion"},
};

/// One shared Rule per row, in catalog order.
const std::vector<RulePtr>& catalog() {
  static const std::vector<RulePtr> rules = [] {
    std::vector<RulePtr> out;
    for (const RuleRow& row : kCatalog)
      out.push_back(std::make_shared<Rule>(row));
    return out;
  }();
  return rules;
}

RulePtr rule_named(std::string_view name) {
  RulePtr r = find_rule(name);
  COLOP_REQUIRE(r != nullptr, "no rule named " + std::string(name));
  return r;
}

}  // namespace

std::string Rule::name() const { return row_->name; }
std::string Rule::description() const { return row_->description; }
Law Rule::law() const { return row_->law; }

std::string Rule::side_condition() const {
  switch (row_->law) {
    case Law::structural: return "structural (no algebraic side condition)";
    case Law::associative:
      return "+ associative (rank-indexed repetition of one operator)";
    case Law::commutative: return "+ commutative (and associative)";
    case Law::distributes:
      return "x distributes over + (all operators associative)";
    case Law::split_phase: return row_->guard;
  }
  return {};
}

std::optional<RuleMatch> Rule::match(const ir::Program& prog, std::size_t at,
                                     std::string* why) const {
  return row_->match(*row_, prog, at, why);
}

std::vector<RuleMatch> Rule::matches(const ir::Program& prog) const {
  std::vector<RuleMatch> out;
  for (std::size_t i = 0; i < prog.size(); ++i)
    if (auto m = match(prog, i)) out.push_back(std::move(*m));
  return out;
}

RulePtr rule_sr2_reduction() { return rule_named("SR2-Reduction"); }
RulePtr rule_sr_reduction() { return rule_named("SR-Reduction"); }
RulePtr rule_ss2_scan() { return rule_named("SS2-Scan"); }
RulePtr rule_ss_scan() { return rule_named("SS-Scan"); }
RulePtr rule_bs_comcast() { return rule_named("BS-Comcast"); }
RulePtr rule_bss2_comcast() { return rule_named("BSS2-Comcast"); }
RulePtr rule_bss_comcast() { return rule_named("BSS-Comcast"); }
RulePtr rule_br_local() { return rule_named("BR-Local"); }
RulePtr rule_bsr2_local() { return rule_named("BSR2-Local"); }
RulePtr rule_bsr_local() { return rule_named("BSR-Local"); }
RulePtr rule_cr_alllocal() { return rule_named("CR-Alllocal"); }
RulePtr rule_bsr2_alllocal() { return rule_named("BSR2-Alllocal"); }
RulePtr rule_bsr_alllocal() { return rule_named("BSR-Alllocal"); }
RulePtr rule_rb_allreduce() { return rule_named("RB-Allreduce"); }
RulePtr rule_sb_elim() { return rule_named("SB-Elim"); }
RulePtr rule_bb_elim() { return rule_named("BB-Elim"); }
RulePtr rule_mb_swap() { return rule_named("MB-Swap"); }
RulePtr rule_overlap_split() { return rule_named("Overlap-Split"); }
RulePtr rule_wait_sink() { return rule_named("Wait-Sink"); }

std::vector<RulePtr> all_rules() {
  const auto& rules = catalog();
  return std::vector<RulePtr>(rules.begin(), rules.end() - kOverlapRows);
}

std::vector<RulePtr> overlap_rules() {
  const auto& rules = catalog();
  return std::vector<RulePtr>(rules.end() - kOverlapRows, rules.end());
}

RulePtr find_rule(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kCatalog); ++i)
    if (name == kCatalog[i].name) return catalog()[i];
  return nullptr;
}

bool masked_by_bcast(const ir::Program& prog, std::size_t after, int root) {
  for (std::size_t i = after; i < prog.size(); ++i) {
    const ir::Stage& s = prog.stage(i);
    if (s.kind() == Kind::Map) continue;  // rank-uniform local
    if (s.kind() == Kind::Bcast) return s.root_rank() == root;
    return false;
  }
  return false;
}

}  // namespace colop::rules
