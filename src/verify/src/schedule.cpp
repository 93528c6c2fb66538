#include "colop/verify/schedule.h"

#include <string>
#include <string_view>
#include <utility>

#include "colop/ir/packed_eval.h"
#include "colop/ir/shapes.h"
#include "colop/support/bits.h"
#include "colop/verify/splitphase.h"

namespace colop::verify {
namespace {

using ir::Program;
using ir::Stage;

struct Walker {
  const Program& prog;
  const ScheduleOptions& opts;
  Report* report;  ///< nullptr: states only, no diagnostics
  std::vector<DistState> states;

  void diag(Severity sev, std::string code, std::size_t i, std::string message,
            std::string hint) const {
    if (report == nullptr) return;
    Diagnostic d;
    d.severity = sev;
    d.code = std::move(code);
    d.analysis = "schedule";
    d.message = std::move(message);
    d.hint = std::move(hint);
    d.stage = i;
    d.stage_show = prog.stage(i).show();
    if (i < opts.provenance.size()) d.provenance = opts.provenance[i];
    report->add(std::move(d));
  }

  void root_in_range(int root, std::size_t i) const {
    if (root >= 0 && root < opts.p) return;
    diag(Severity::error, "V203", i,
         "root rank " + std::to_string(root) + " is out of range for p = " +
             std::to_string(opts.p) +
             " — every rank would wait on a collective nobody roots",
         "pick a root in [0, " + std::to_string(opts.p) + ")");
  }

  /// Pre-contract shared by every data-combining collective: all p blocks
  /// must be (potentially) defined.
  void need_all_defined(const DistState& st, std::size_t i,
                        std::string_view what) const {
    if (st.kind != DistState::Kind::root_only) return;
    diag(Severity::error, "V201", i,
         std::string(what) + " combines the blocks of all " + std::to_string(opts.p) +
             " ranks, but only rank " + std::to_string(st.root) +
             " holds defined data here (state " + st.to_string() +
             ") — undefined operands gate to `_`, so the result is undefined",
         "insert bcast(root=" + std::to_string(st.root) +
             ") before this stage, or root the producing reduce elsewhere");
  }

  void divergence_discarded(std::size_t producer, std::size_t consumer,
                            const std::string& how) const {
    diag(Severity::warning, "V206", consumer,
         "the rank-local results of stage " + std::to_string(producer) + " (" +
             prog.stage(producer).show() + ") are " + how,
         "drop the producing stage, or move it after this one if only the "
         "root's value matters");
  }

  /// iter reads rank 0's block and leaves `_` everywhere else (V204,
  /// V201, V206).
  void iter_reads_rank0(const DistState& st, std::size_t i,
                        const ir::IterStage& it) const {
    if (!is_pow2(static_cast<std::uint64_t>(opts.p)) &&
        it.general_fold == nullptr)
      diag(Severity::error, "V204", i,
           "iter's doubling schema computes f^log2(p), which is exact "
           "only for p a power of two; p = " +
               std::to_string(opts.p) +
               " and no generalized fold is provided, so evaluation "
               "throws at run time",
           "pass a general_fold (square-and-multiply over the binary "
           "digits of p) or run on a power-of-two machine");
    if (st.kind == DistState::Kind::root_only && st.root != 0) {
      diag(Severity::error, "V201", i,
           "iter operates on rank 0's block, which is undefined here — "
           "the defined data lives only at rank " +
               std::to_string(st.root) + " (state " + st.to_string() + ")",
           "root the producing reduce at 0, or bcast before the iter");
    } else if (st.kind != DistState::Kind::root_only) {
      diag(Severity::warning, "V206", i,
           "iter keeps only rank 0's result and overwrites the defined "
           "blocks of the other " +
               std::to_string(opts.p - 1) +
               " ranks with `_` (state before: " + st.to_string() + ")",
           "iter normally follows a reduce to rank 0; check that the "
           "discarded data is really dead");
    }
  }

  /// A bcast (or istart_bcast) reads its root's block (V202, V206).
  void bcast_reads_root(const DistState& st, std::size_t i,
                        const Stage& bc) const {
    const std::string name(bc.row().keyword);
    const int root = bc.root_rank();
    if (st.kind == DistState::Kind::root_only && st.root != root) {
      // PARCOACH's classic mismatch, in distribution-state form: the
      // collective everyone executes is rooted where nothing lives.
      diag(Severity::error, "V202", i,
           name + " roots at rank " + std::to_string(root) +
               ", whose block is undefined — the defined data lives "
               "only at rank " +
               std::to_string(st.root) + " (state " + st.to_string() +
               "); every rank would receive `_`",
           "root the " + name + " at " + std::to_string(st.root) +
               " (or root the producing reduce at " + std::to_string(root) +
               ")");
    } else if (st.kind == DistState::Kind::uniform) {
      diag(Severity::warning, "V206", i,
           "redundant " + name +
               ": every rank already holds the root's value (state "
               "uniform)",
           bc.row().role == ir::WindowRole::istart
               ? "remove it and its " + ir::WaitStage(bc.request_handle()).show()
               : "remove it — this is what rule BB-Elim fires on");
    } else if (st.kind == DistState::Kind::varied && i > 0 &&
               !prog.stage(i - 1).is_local()) {
      // A collective just computed rank-distinct results and this
      // bcast immediately overwrites all but the root's.
      divergence_discarded(i - 1, i,
                           "immediately overwritten on every non-root "
                           "rank by this " + name);
    }
  }

  // Each stage's contract and post-state come from its kind's row.
  // Split-phase: the continuation semantics makes the collective's result
  // visible immediately, so an istart carries its blocking twin's
  // distribution contract and post-state, worded with its own spelling;
  // wait is a no-op.  The V22x nonblocking contracts are
  // analyze_splitphase's job.
  void walk() {
    DistState st = opts.entry;
    const auto n = prog.size();
    states.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Stage& stage = prog.stage(i);
      const ir::KindRow& row = stage.row();
      if (row.needs_associative() && !stage.binop()->associative())
        diag(Severity::error, "V207", i,
             "operator `" + stage.binop()->name() +
                 "` is not declared associative; " + std::string(row.regroups) +
                 " regroups applications and would change the result",
             "use " + std::string(row.balanced) +
                 " or fix the operator declaration");
      if (row.names_root) root_in_range(stage.root_rank(), i);
      switch (row.reads) {
        case ir::Reads::own:
          break;
        case ir::Reads::all:
          need_all_defined(st, i, row.keyword);
          break;
        case ir::Reads::root:
          bcast_reads_root(st, i, stage);
          break;
        case ir::Reads::rank0:
          iter_reads_rank0(st, i, static_cast<const ir::IterStage&>(stage));
          break;
      }
      switch (row.post) {
        case ir::PostState::unchanged:
          break;
        case ir::PostState::rank_dependent:
          // f k x is rank-dependent: replicated data stops being so.
          if (st.kind == DistState::Kind::uniform) st = DistState::varied();
          break;
        case ir::PostState::varied:
          st = DistState::varied();
          break;
        case ir::PostState::root_only:
          st = DistState::root_only(stage.root_rank());
          break;
        case ir::PostState::uniform:
          st = DistState::uniform();
          break;
      }
      states.push_back(st);
    }
  }
};

}  // namespace

std::string DistState::to_string() const {
  switch (kind) {
    case Kind::uniform: return "uniform";
    case Kind::varied: return "varied";
    case Kind::root_only: return "root_only(" + std::to_string(root) + ")";
  }
  return "?";
}

std::vector<DistState> distribution_states(const Program& prog,
                                           const ScheduleOptions& opts) {
  Walker w{prog, opts, nullptr, {}};
  w.walk();
  return std::move(w.states);
}

Report analyze_schedule(const Program& prog, const ScheduleOptions& opts) {
  Report report;

  // V205: the shapes.h contract — element shapes consistent, collective
  // `words` metadata equal to the transmitted width (the cost calculus and
  // Table-1 estimates depend on it).
  if (auto err = ir::check_shapes(prog, opts.input)) {
    Diagnostic d;
    d.severity = Severity::error;
    d.code = "V205";
    d.analysis = "schedule";
    d.message = "shape/words metadata inconsistency: " + *err;
    d.hint =
        "fix the stage's `words` argument or the element functions' shape "
        "transformers; the cost model is lying about this schedule until "
        "then";
    report.add(std::move(d));
  }

  Walker w{prog, opts, &report, {}};
  w.walk();

  // The split-phase nonblocking contracts (V220-V223) ride along with every
  // schedule analysis; programs without istart/wait add nothing.
  report.merge(analyze_splitphase(prog, opts));

  if (opts.lints) {
    if (auto inel = ir::packed_ineligibility(prog, opts.input, opts.p)) {
      Diagnostic d;
      d.severity = Severity::lint;
      d.code = "V208";
      d.analysis = "schedule";
      d.message = "schedule is not packed-plane eligible: " + inel->reason +
                  " — the whole program evaluates boxed";
      d.hint =
          "provide the missing packed kernel (packed_kernels.h) to unlock "
          "the flat data plane";
      if (inel->stage) {
        d.stage = inel->stage;
        d.stage_show = prog.stage(*inel->stage).show();
        if (*inel->stage < opts.provenance.size())
          d.provenance = opts.provenance[*inel->stage];
      }
      report.add(std::move(d));
    }
  }
  return report;
}

}  // namespace colop::verify
