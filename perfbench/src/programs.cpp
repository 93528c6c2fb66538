#include "programs.h"

#include <array>
#include <utility>

#include "colop/ir/stage.h"
#include "colop/model/cost_memo.h"

namespace perfbench {

namespace ir = colop::ir;
using colop::Rng;

namespace {

std::vector<std::size_t> shuffled(Rng& rng, std::size_t n) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = n; i > 1; --i)
    std::swap(idx[i - 1], idx[static_cast<std::size_t>(
                              rng.uniform(0, static_cast<std::int64_t>(i) - 1))]);
  return idx;
}

/// The family's operators in role order, with each symmetric pair in an
/// order drawn from `run`.
std::vector<std::string> family_ops(Family family, std::int64_t modulus, Rng& run) {
  const bool flip_order = run.uniform(0, 1) == 1, flip_bits = run.uniform(0, 1) == 1;
  const std::string hi = flip_order ? "min" : "max", lo = flip_order ? "max" : "min";
  const std::string band = flip_bits ? "bor" : "band", bor = flip_bits ? "band" : "bor";
  switch (family) {
    case Family::tropical:
      return {"+", hi, lo};
    case Family::modular:
      return {"+mod" + std::to_string(modulus), "*mod" + std::to_string(modulus)};
    case Family::sign:
      return {"*", hi, lo};
    case Family::lattice:
      return {"gcd", "first", hi, lo, band, bor};
  }
  return {};
}

template <std::size_t N>
std::size_t weighted(Rng& rng, const std::array<int, N>& weights) {
  int total = 0;
  for (int w : weights) total += w;
  int pick = static_cast<int>(rng.uniform(0, total - 1));
  for (std::size_t i = 0; i < N; ++i) {
    if (pick < weights[i]) return i;
    pick -= weights[i];
  }
  return N - 1;
}

std::string random_text(Rng& shape, int stages, const std::vector<std::string>& ops) {
  enum Kind : std::size_t { map, scan, reduce, allreduce, bcast };
  // After a reduce only the root holds data: a collective that consumes
  // the other ranks' blocks would be a V201 contract error, so only a
  // re-broadcast or a local map may follow until then.
  constexpr std::array<int, 5> any_state{1, 3, 2, 2, 2};
  constexpr std::array<int, 5> root_only{1, 0, 0, 0, 3};
  std::string text;
  bool at_root = false;
  for (int s = 0; s < stages; ++s) {
    const auto kind = weighted(shape, at_root ? root_only : any_state);
    const auto& op = ops[static_cast<std::size_t>(
        shape.uniform(0, static_cast<std::int64_t>(ops.size()) - 1))];
    if (!text.empty()) text += " ; ";
    switch (kind) {
      case map: text += "map(id)"; break;
      case scan: text += "scan(" + op + ")"; break;
      case reduce: text += "reduce(" + op + ")"; at_root = true; break;
      case allreduce: text += "allreduce(" + op + ")"; break;
      default: text += "bcast"; at_root = false; break;
    }
  }
  return text;
}

}  // namespace

std::vector<double> stratified(SetRng& r, std::size_t n) {
  const auto order = shuffled(r.shape, n);
  std::vector<double> u(n);
  for (std::size_t i = 0; i < n; ++i)
    u[i] = (static_cast<double>(order[i]) + r.run.uniform01()) / static_cast<double>(n);
  return u;
}

std::vector<ProgramSpec> random_programs(SetRng& r, std::size_t n) {
  constexpr std::array<std::int64_t, 3> moduli{7, 97, 65521};
  const auto length_slot = shuffled(r.shape, n);
  const auto family_slot = shuffled(r.shape, n);
  std::vector<ProgramSpec> set(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto& spec = set[i];
    spec.family = static_cast<Family>(family_slot[i] % 4);
    if (spec.family == Family::modular)
      spec.modulus = moduli[static_cast<std::size_t>(r.run.uniform(0, 2))];
    const int stages = 3 + static_cast<int>(length_slot[i] % 6);
    spec.text = random_text(r.shape, stages, family_ops(spec.family, spec.modulus, r.run));
  }
  return set;
}

ir::Dist make_input(const ProgramSpec& spec, int p, std::size_t block, Rng& rng) {
  std::int64_t lo = 0, hi = 0;
  switch (spec.family) {
    case Family::tropical: hi = 9; break;
    case Family::modular: hi = spec.modulus - 1; break;
    case Family::sign: lo = -1; hi = 1; break;
    case Family::lattice: hi = 63; break;
  }
  ir::Dist input(static_cast<std::size_t>(p));
  for (auto& b : input) {
    b.reserve(block);
    for (std::size_t j = 0; j < block; ++j) b.emplace_back(rng.uniform(lo, hi));
  }
  return input;
}

std::vector<std::size_t> contract_ranks(const ir::Program& source, int p) {
  for (auto it = source.stages().rbegin(); it != source.stages().rend(); ++it) {
    if ((*it)->is_local()) continue;
    if ((*it)->kind() == ir::Stage::Kind::Reduce)
      return {static_cast<std::size_t>(static_cast<const ir::ReduceStage&>(**it).root)};
    break;
  }
  std::vector<std::size_t> all(static_cast<std::size_t>(p));
  for (std::size_t r = 0; r < all.size(); ++r) all[r] = r;
  return all;
}

std::uint64_t digest(const std::vector<ProgramSpec>& set) {
  std::string key;
  for (const auto& spec : set)
    key += spec.text + "\n" + std::to_string(spec.machine.p) + "/" +
           std::to_string(spec.machine.m) + "/" + std::to_string(spec.machine.ts) + "/" +
           std::to_string(spec.machine.tw) + "\n";
  return colop::model::canonical_hash(key);
}

}  // namespace perfbench
