#include "colop/verify/verify.h"

#include <ostream>
#include <set>
#include <sstream>

#include "colop/obs/metrics.h"
#include "colop/obs/trace_context.h"

namespace colop::verify {
namespace {

/// Distinct BinOps the program uses (by name — registry factories hand out
/// fresh shared_ptrs for the same operator).
std::vector<ir::BinOpPtr> used_ops(const ir::Program& prog) {
  std::vector<ir::BinOpPtr> ops;
  std::set<std::string> seen;
  for (auto& op : stage_ops(prog.stages()))
    if (op && seen.insert(op->name()).second) ops.push_back(std::move(op));
  return ops;
}

}  // namespace

VerifyResult verify_program(const ir::Program& source,
                            const rules::OptimizeResult* opt,
                            const VerifyOptions& opts) {
  VerifyResult out;

  // Analysis 1: declared algebraic properties of every operator the source
  // uses, checked against each other (missed-fusion lints consider exactly
  // the co-used operators).
  const auto ops = used_ops(source);
  PropertyCheckOptions popts = opts.properties;
  popts.lint_undeclared = popts.lint_undeclared && opts.lints;
  for (const auto& op : ops) out.report.merge(check_binop(op, ops, popts));

  // Analysis 2: distribution-state contracts, source first ...
  ScheduleOptions sopts;
  sopts.p = opts.p;
  sopts.input = opts.input;
  sopts.entry = opts.entry;
  sopts.lints = opts.lints;
  out.report.merge(analyze_schedule(source, sopts));

  if (opt != nullptr && !opt->log.empty()) {
    // ... then the optimized schedule, each stage blamed on the rule that
    // produced it.  (An empty derivation left the program unchanged — the
    // source analysis above already covers it.)
    ScheduleOptions oopts = sopts;
    oopts.provenance = rules::stage_provenance(source.size(), opt->log);
    out.report.merge(analyze_schedule(opt->program, oopts));

    // Analysis 3: certify the derivation itself.
    out.certificates = certify_derivation(source, opt->log, opts.certify);
    out.report.merge(out.certificates.report);
    out.certificates.report = Report{};  // merged; don't double-count
  }
  return out;
}

std::string VerifyResult::render_text(bool include_lints) const {
  std::ostringstream os;
  if (!certificates.certificates.empty())
    os << certificates.render_text() << "\n";
  os << report.render_text(include_lints);
  return os.str();
}

void VerifyResult::write_json(std::ostream& os, bool include_lints) const {
  const std::string trace = obs::trace_id_json_field();
  if (!trace.empty())
    os << "{" << trace.substr(1) << ",\"report\":";
  else
    os << "{\"report\":";
  report.write_json(os, include_lints);
  os << ",\"certificates\":";
  certificates.write_json(os);
  os << "}";
}

void publish_metrics(const VerifyResult& result, obs::Registry& registry) {
  for (const Certificate& c : result.certificates.certificates) {
    registry
        .counter("colop_verify_certificates_total",
                 "Rewrite soundness certificates, by outcome",
                 {{"status", c.discharged ? "discharged" : "failed"}})
        .inc();
    // Every obligation line of a discharged certificate held; a failed
    // certificate's failing obligation is also an error diagnostic.
    registry
        .counter("colop_verify_obligations_total",
                 "Proof obligations checked across certificates",
                 {{"status", c.discharged ? "discharged" : "failed"}})
        .inc(static_cast<double>(c.obligations.size()));
  }
  for (const Diagnostic& d : result.report.diagnostics())
    registry
        .counter("colop_verify_diagnostics_total",
                 "Verifier findings, by severity",
                 {{"severity", to_string(d.severity)}})
        .inc();
  registry
      .gauge("colop_verify_sound", "1 when the run verified clean, else 0")
      .set(result.ok() ? 1 : 0);
}

}  // namespace colop::verify
