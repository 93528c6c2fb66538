#pragma once
// Seeded program sets for the benchmark workloads.
//
// Every program is text in colopt's surface syntax (so the CLI fidelity
// check can replay it verbatim), 3-8 stages drawn from map(id), scan,
// reduce, allreduce and bcast.  Operators come from one value family per
// program, and the family fixes the input domain so that every integer
// intermediate of the source AND of any rewritten schedule stays inside
// int64 (signed overflow is undefined behaviour, and would make the
// output oracles compare garbage):
//
//   tropical  + max min               inputs 0..9    (sums grow at most p
//                                                     per stage: 9*64^8)
//   modular   +modN *modN             inputs 0..N-1  (products < N^2)
//   sign      * max min               inputs -1..1   (closed under all three)
//   lattice   gcd max min band bor first  inputs 0..63  (never grows)
//
// Floating-point operators and mat2 are left out: the oracles compare
// exactly, and mat2 products overflow.  Stage sequences respect the
// distribution-state contract (after a non-final reduce only map(id) or
// bcast may follow), so no generated program carries an error-severity
// verifier finding by construction.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "colop/ir/program.h"
#include "colop/ir/value.h"
#include "colop/model/machine.h"
#include "colop/support/rng.h"

namespace perfbench {

enum class Family { tropical, modular, sign, lattice };

struct ProgramSpec {
  std::string text;  ///< canonical: parse_program(text).show() == text
  colop::model::Machine machine;
  Family family = Family::tropical;
  std::int64_t modulus = 0;  ///< modular family only
};

/// Randomness of a program set, split in two.  `shape` draws what the op
/// costs depend on (stage kinds, operator roles, family, length and each
/// program's machine stratum) from a constant, so every run measures the
/// same program shapes and its figures do not move with the seed.  `run`
/// draws, from --seed, everything the shapes leave open: operators
/// relabelled within their symmetric pairs (max/min, band/bor, which share
/// every declared law, so the same rules fire), moduli, machine
/// parameters within their strata and all input values.
struct SetRng {
  colop::Rng shape;
  colop::Rng run;
};

/// Latin-hypercube coordinates: for each of `n` items a value in [0, 1)
/// in a distinct 1/n stratum; strata assigned by `r.shape`, the position
/// inside a stratum by `r.run`.
[[nodiscard]] std::vector<double> stratified(SetRng& r, std::size_t n);

/// `n` programs, families and stage counts balanced across the set (each
/// of the 3..8 lengths and each family appears equally often).  Machines
/// are left at their defaults for the caller to assign.
[[nodiscard]] std::vector<ProgramSpec> random_programs(SetRng& r, std::size_t n);

/// `block` elements per rank drawn from the spec's input domain.
[[nodiscard]] colop::ir::Dist make_input(const ProgramSpec& spec, int p,
                                         std::size_t block, colop::Rng& rng);

/// Ranks whose final blocks the optimizer's default `root_result` policy
/// guarantees: the root alone when the last collective is a reduce,
/// every rank otherwise.
[[nodiscard]] std::vector<std::size_t> contract_ranks(
    const colop::ir::Program& source, int p);

/// Hash of the texts and machines (model::canonical_hash): identifies a
/// program set.
[[nodiscard]] std::uint64_t digest(const std::vector<ProgramSpec>& set);

}  // namespace perfbench
