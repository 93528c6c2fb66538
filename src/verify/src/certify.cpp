#include "colop/verify/certify.h"

#include <algorithm>
#include <optional>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "colop/ir/shapes.h"
#include "colop/obs/json.h"
#include "colop/rules/selfcheck.h"
#include "colop/support/error.h"
#include "colop/verify/properties.h"

namespace colop::verify {
namespace {

using ir::BinOpPtr;
using ir::Program;
using ir::Value;

struct GenChoice {
  rules::ElemGen gen;
  double rel_tol = 0;
  std::string name;
};

Value random_mat(Rng& rng) {
  return Value::tuple_of({Value(rng.uniform(-2, 2)), Value(rng.uniform(-2, 2)),
                          Value(rng.uniform(-2, 2)),
                          Value(rng.uniform(-2, 2))});
}

/// Input-element generator matching the value domain of a run of stages.
/// Small magnitudes keep multiplicative chains in exact range.
GenChoice choose_generator(std::span<const ir::StagePtr> stages) {
  bool has_mat = false, has_real = false, has_gcd = false;
  for (const auto& op : stage_ops(stages)) {
    const std::string& n = op->name();
    has_mat |= n == "mat2";
    has_real |= n == "f+" || n == "f*";
    has_gcd |= n == "gcd";
  }
  if (has_mat)
    return {[](Rng& rng) { return random_mat(rng); }, 0, "mat2[-2,2]"};
  if (has_real)
    return {[](Rng& rng) { return Value(rng.uniform01() * 4.0 - 2.0); }, 1e-9,
            "real[-2,2)"};
  if (has_gcd)
    return {[](Rng& rng) { return Value(rng.uniform(0, 40)); }, 0,
            "nonneg[0,40]"};
  return {[](Rng& rng) { return Value(rng.uniform(-9, 9)); }, 0, "int[-9,9]"};
}

/// The stages a match consumes.
std::span<const ir::StagePtr> window_of(const Program& prog,
                                        const rules::RuleMatch& match) {
  return std::span(prog.stages()).subspan(match.first, match.count);
}

/// Every request an istart in `stages` issues is completed by a wait in
/// `stages`, and every wait there completes such a request.
bool requests_closed(std::span<const ir::StagePtr> stages) {
  std::vector<int> issued, completed;
  for (const auto& st : stages) {
    if (st->row().role == ir::WindowRole::istart)
      issued.push_back(st->request_handle());
    else if (st->row().role == ir::WindowRole::wait)
      completed.push_back(st->request_handle());
  }
  std::ranges::sort(issued);
  std::ranges::sort(completed);
  return issued == completed;
}

/// Whether the equivalence of `match` can be discharged on its window
/// alone.  `;` composes functions on distributed lists, so a full
/// equivalence of the window holds inside any prefix and suffix — provided
/// the window's scalar inputs cover what the prefix hands it and both
/// sides own every request they touch.
bool window_stands_alone(const Program& prog, const rules::RuleMatch& match) {
  if (match.equivalence != rules::Equivalence::full) return false;
  try {
    if (!ir::shape_before(prog, match.first).is_scalar()) return false;
  } catch (const Error&) {
    return false;
  }
  return requests_closed(window_of(prog, match)) &&
         requests_closed(match.replacement);
}

/// Window equivalence verdicts of one certify call, keyed by (rule, LHS
/// text, RHS text, generator name); nullopt when the window threw when
/// evaluated alone.
using WindowVerdicts =
    std::unordered_map<std::string, std::optional<rules::SelfCheckResult>>;

struct EquivalenceCheck {
  rules::SelfCheckResult result;
  std::string inputs;  ///< the generator's name
  const char* scope;   ///< "window" or "program"
};

/// Obligation 3 on the smallest scope that proves it: the window when it
/// stands alone and evaluates, else the whole program (which may throw).
EquivalenceCheck check_equivalence(const Program& prog,
                                   const rules::RuleMatch& match,
                                   const CertifyOptions& opts,
                                   WindowVerdicts& windows) {
  if (window_stands_alone(prog, match)) {
    const auto window = window_of(prog, match);
    const Program lhs(std::vector<ir::StagePtr>(window.begin(), window.end()));
    const GenChoice gen = choose_generator(window);
    const std::string key = match.rule_name + '\x1f' + lhs.show() + '\x1f' +
                            Program(match.replacement).show() + '\x1f' +
                            gen.name;
    const auto [it, fresh] = windows.try_emplace(key);
    if (fresh) {
      rules::RuleMatch local = match;
      local.first = 0;
      try {
        it->second = rules::selfcheck_match(lhs, local, gen.gen, opts.max_p,
                                            opts.trials_per_p, opts.block,
                                            opts.seed, gen.rel_tol);
      } catch (const Error&) {
        // Not evaluable alone: the whole program decides below.
      }
    }
    if (it->second) return {*it->second, gen.name, "window"};
  }
  const GenChoice gen = choose_generator(prog.stages());
  return {rules::selfcheck_match(prog, match, gen.gen, opts.max_p,
                                 opts.trials_per_p, opts.block, opts.seed,
                                 gen.rel_tol),
          gen.name, "program"};
}

Diagnostic cert_diag(Severity sev, std::string code, const Program& prog,
                     const rules::AppliedRule& step, std::string message,
                     std::string hint) {
  Diagnostic d;
  d.severity = sev;
  d.code = std::move(code);
  d.analysis = "certify";
  d.subject = step.rule;
  d.message = std::move(message);
  d.hint = std::move(hint);
  d.stage = step.position;
  if (step.position < prog.size()) d.stage_show = prog.stage(step.position).show();
  d.provenance = step.rule;
  return d;
}

}  // namespace

std::vector<BinOpPtr> stage_ops(std::span<const ir::StagePtr> stages) {
  std::vector<BinOpPtr> ops;
  for (const auto& st : stages)
    if (const BinOpPtr& op = st->binop()) ops.push_back(op);
  return ops;
}

std::string side_condition_of(const std::string& rule_name) {
  if (const rules::RulePtr rule = rules::find_rule(rule_name))
    return rule->side_condition();
  return "associativity of the collective operators";
}

namespace {

/// One replayed step: its certificate, the diagnostics it raised, and the
/// program after the rewrite — absent when re-derivation failed (V303),
/// which aborts the replay.
struct StepOutcome {
  Certificate cert;
  Report report;
  std::optional<Program> next;
};

StepOutcome certify_step(const Program& prog, const rules::AppliedRule& step,
                         const PropertyCheckOptions& popts,
                         const CertifyOptions& opts, WindowVerdicts& windows) {
  StepOutcome out;
  Certificate& cert = out.cert;
  cert.rule = step.rule;
  cert.position = step.position;
  cert.side_condition = side_condition_of(step.rule);
  bool ok = true;

  // Obligation 1: re-derivability.
  const rules::RulePtr rule = rules::find_rule(step.rule);
  std::string reject;
  std::optional<rules::RuleMatch> match;
  if (rule) match = rule->match(prog, step.position, &reject);
  if (!rule || !match || match->count != step.count ||
      match->replacement.size() != step.replaced_by) {
    if (reject.empty()) reject = "window shape mismatch";
    std::string why =
        !rule ? "no rule of this name exists"
        : !match
            ? "the rule no longer matches there (" + reject + ")"
            : "the re-derived match consumes " +
                  std::to_string(match->count) + "->" +
                  std::to_string(match->replacement.size()) +
                  " stages, the log recorded " + std::to_string(step.count) +
                  "->" + std::to_string(step.replaced_by);
    cert.obligations.push_back("re-derivation: FAILED — " + why);
    cert.discharged = false;
    out.report.add(cert_diag(
        Severity::error, "V303", prog, step,
        "derivation step cannot be replayed: " + why +
            " — the recorded derivation does not prove this program",
        "re-run the optimizer; a stale or hand-edited derivation log "
        "certifies nothing"));
    return out;  // later steps would replay against an unknown program
  }
  cert.note = match->note;
  cert.obligations.push_back(
      "re-derivation: ok (window of " + std::to_string(match->count) +
      " stage(s) -> " + std::to_string(match->replacement.size()) + ")");

  // Obligation 2: the algebraic side condition, re-established on the
  // matched operators by checking, not by trusting declarations.
  const auto ops = stage_ops(window_of(prog, *match));
  for (const auto& op : ops) {
    const ValueDomain dom = domain_for(*op);
    if (auto cx = find_assoc_counterexample(*op, dom, popts)) {
      ok = false;
      cert.obligations.push_back("side condition: FAILED — `" + op->name() +
                                 "` is not associative: " + *cx);
      out.report.add(cert_diag(
          Severity::error, "V301", prog, step,
          "side condition violated: operator `" + op->name() +
              "` (declared associative) is not: " + *cx,
          "fix the operator declaration; every collective schedule of it "
          "is unsound, not just this rewrite"));
    }
  }
  if (rule->law() == rules::Law::commutative) {
    for (const auto& op : ops) {
      const ValueDomain dom = domain_for(*op);
      if (auto cx = find_comm_counterexample(*op, dom, popts)) {
        ok = false;
        cert.obligations.push_back("side condition: FAILED — `" +
                                   op->name() +
                                   "` is not commutative: " + *cx);
        out.report.add(cert_diag(
            Severity::error, "V301", prog, step,
            "side condition violated: `" + op->name() +
                "` is declared commutative but is not: " + *cx,
            "remove `commutative` from the declaration and re-optimize; "
            "this rewrite reorders operands and changes the result"));
      }
    }
  }
  if (rule->law() == rules::Law::distributes) {
    if (ops.size() < 2) {
      ok = false;
      out.report.add(cert_diag(
          Severity::warning, "V304", prog, step,
          "cannot identify the (x, +) operator pair in the matched window "
          "to re-check distributivity",
          ""));
      cert.obligations.push_back(
          "side condition: NOT EVALUABLE — operator pair not identified");
    } else {
      const ir::BinOp& times = *ops.front();
      const ir::BinOp& plus = *ops.back();
      if (const auto dom = joint_domain(times, plus)) {
        if (auto cx = find_distrib_counterexample(times, plus, *dom, popts)) {
          ok = false;
          cert.obligations.push_back("side condition: FAILED — `" +
                                     times.name() +
                                     "` does not distribute over `" +
                                     plus.name() + "`: " + *cx);
          out.report.add(cert_diag(
              Severity::error, "V301", prog, step,
              "side condition violated: `" + times.name() +
                  "` is declared to distribute over `" + plus.name() +
                  "` but does not: " + *cx,
              "remove the `distributes_over` declaration and re-optimize; "
              "the fused operator computes a different function"));
        } else {
          cert.obligations.push_back(
              "side condition: ok (`" + times.name() +
              "` distributes over `" + plus.name() + "`, " + dom->name +
              " domain, exhaustive + " +
              std::to_string(popts.random_trials) + " random probes)");
        }
      } else {
        out.report.add(cert_diag(
            Severity::warning, "V304", prog, step,
            "operators `" + times.name() + "` and `" + plus.name() +
                "` have incompatible value domains; the distributivity "
                "side condition was not re-checked",
            ""));
        cert.obligations.push_back(
            "side condition: NOT EVALUABLE — incompatible value domains");
      }
    }
  } else if (ok) {
    cert.obligations.push_back("side condition: ok (" + cert.side_condition +
                               ")");
  }

  // Obligation 3: extensional LHS == RHS under the match's own
  // equivalence level, differentially through eval_reference, on the
  // matched window when it stands alone, else on the whole program.
  try {
    const EquivalenceCheck chk = check_equivalence(prog, *match, opts, windows);
    const auto& res = chk.result;
    if (res.ok) {
      cert.obligations.push_back(
          "equivalence: ok (p=" + std::to_string(res.first_p) + ".." +
          std::to_string(opts.max_p) + ", " +
          std::to_string(opts.trials_per_p) + " trial(s)/p, " + chk.inputs +
          " inputs, " + chk.scope + ")");
    } else {
      ok = false;
      cert.obligations.push_back("equivalence: FAILED — " +
                                 res.counterexample);
      out.report.add(cert_diag(
          Severity::error, "V302", prog, step,
          "LHS and RHS disagree under differential evaluation: " +
              res.counterexample,
          "the rewrite is unsound for these operators even though its "
          "side condition passed the checker's probes — treat as a rule "
          "implementation bug"));
    }
  } catch (const Error& e) {
    out.report.add(cert_diag(
        Severity::warning, "V304", prog, step,
        "equivalence obligation not evaluable with " +
            choose_generator(prog.stages()).name + " inputs: " + e.what(),
        "the program needs a custom input generator to be certified"));
    cert.obligations.push_back(std::string("equivalence: NOT EVALUABLE — ") +
                               e.what());
  }

  cert.discharged = ok;
  out.next = match->apply(prog);
  return out;
}

/// Cache identity of one replay step: the intermediate program it applies
/// to plus the recorded rule application.  Replays are deterministic in
/// these, so two paths sharing a step (same prefix, or rule-order
/// permutations converging on one program) share its obligation chain.
std::string step_cache_key(const Program& prog,
                           const rules::AppliedRule& step) {
  return prog.show() + '\x1f' + step.rule + '@' +
         std::to_string(step.position) + '#' + std::to_string(step.count) +
         '>' + std::to_string(step.replaced_by);
}

}  // namespace

DerivationCertificates certify_derivation(
    const Program& source, const std::vector<rules::AppliedRule>& log,
    const CertifyOptions& opts) {
  DerivationCertificates out;
  PropertyCheckOptions popts;
  popts.random_trials = opts.property_trials;
  popts.seed = opts.seed;

  WindowVerdicts windows;
  Program prog = source;
  for (const auto& step : log) {
    StepOutcome o = certify_step(prog, step, popts, opts, windows);
    out.certificates.push_back(std::move(o.cert));
    out.report.merge(std::move(o.report));
    if (!o.next) break;
    prog = std::move(*o.next);
  }
  return out;
}

SequenceCertification certify_sequences(
    const Program& source,
    const std::vector<std::vector<rules::AppliedRule>>& paths,
    const CertifyOptions& opts) {
  SequenceCertification out;
  PropertyCheckOptions popts;
  popts.random_trials = opts.property_trials;
  popts.seed = opts.seed;

  std::unordered_map<std::string, StepOutcome> cache;
  WindowVerdicts windows;
  for (const auto& log : paths) {
    DerivationCertificates certs;
    Program prog = source;
    for (const auto& step : log) {
      auto it = cache.find(step_cache_key(prog, step));
      if (it == cache.end()) {
        it = cache.emplace(step_cache_key(prog, step),
                           certify_step(prog, step, popts, opts, windows))
                 .first;
        ++out.discharged_steps;
      } else {
        ++out.reused_steps;
      }
      const StepOutcome& o = it->second;
      certs.certificates.push_back(o.cert);
      certs.report.merge(o.report);
      if (!o.next) break;
      prog = *o.next;
    }
    out.paths.push_back(std::move(certs));
  }
  return out;
}

CertifiedSearch certify_search(const Program& source,
                               rules::SearchResult result,
                               const CertifyOptions& opts) {
  CertifiedSearch out;
  std::vector<std::vector<rules::AppliedRule>> paths;
  paths.reserve(result.ranked.size());
  for (const auto& r : result.ranked) paths.push_back(r.path);
  out.certification = certify_sequences(source, paths, opts);

  std::optional<std::size_t> winner;
  for (std::size_t i = 0; i < result.ranked.size(); ++i) {
    const bool certified = out.certification.paths[i].ok();
    result.ranked[i].certified = certified ? 1 : 0;
    if (!winner && certified) winner = i;
  }
  if (!winner) {
    // Nothing in the top-K certified.  The unrewritten source — whose
    // empty derivation is trivially sound — can only have been pushed out
    // of the ranked list by cheaper schedules, so appending it keeps the
    // cheapest-first order.
    rules::RankedSchedule src;
    src.program = source;
    src.cost = result.best.cost_initial;
    src.certified = 1;
    result.ranked.push_back(std::move(src));
    winner = result.ranked.size() - 1;
    out.fell_back_to_source = true;
  }
  out.demoted = *winner != 0;
  result.winner_index = *winner;
  const rules::RankedSchedule& w = result.ranked[*winner];
  result.best.program = w.program;
  result.best.log = w.path;
  result.best.cost_final = w.cost;
  out.search = std::move(result);
  return out;
}

std::string DerivationCertificates::render_text() const {
  std::ostringstream os;
  std::size_t certified = 0;
  for (std::size_t i = 0; i < certificates.size(); ++i) {
    const Certificate& c = certificates[i];
    certified += c.discharged ? 1 : 0;
    os << "certificate " << (i + 1) << ": " << c.rule << " @" << c.position;
    if (!c.note.empty()) os << " (" << c.note << ")";
    os << (c.discharged ? "  [discharged]" : "  [NOT discharged]") << "\n";
    os << "  side condition: " << c.side_condition << "\n";
    for (const auto& line : c.obligations) os << "  - " << line << "\n";
  }
  os << "derivation: " << certificates.size() << " application(s), "
     << certified << " certified\n";
  return os.str();
}

void DerivationCertificates::write_json(std::ostream& os) const {
  namespace json = colop::obs::json;
  os << "{\"certificates\":[";
  for (std::size_t i = 0; i < certificates.size(); ++i) {
    const Certificate& c = certificates[i];
    if (i) os << ",";
    os << "{\"rule\":" << json::quote(c.rule) << ",\"position\":" << c.position
       << ",\"note\":" << json::quote(c.note)
       << ",\"side_condition\":" << json::quote(c.side_condition)
       << ",\"discharged\":" << (c.discharged ? "true" : "false")
       << ",\"obligations\":[";
    for (std::size_t j = 0; j < c.obligations.size(); ++j) {
      if (j) os << ",";
      os << json::quote(c.obligations[j]);
    }
    os << "]}";
  }
  os << "],\"ok\":" << (ok() ? "true" : "false") << "}";
}

}  // namespace colop::verify
