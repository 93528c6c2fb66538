#pragma once
// Collective-operation schedules on the simulated machine.  Each function
// executes the same communication pattern as its mpsim counterpart (the
// van de Geijn schedules have none: only the ablation benches run them),
// charging virtual time: one message of (m * w) words per link use and
// (m * ops) compute units per operator sweep over a block of m elements.
//
// For p = 2^k the butterfly schedules reproduce the paper's closed forms
// exactly:  T_bcast  = log p * (ts + m*tw)                    (Eq 15)
//           T_reduce = log p * (ts + m*(tw + 1))              (Eq 16)
//           T_scan   = log p * (ts + m*(tw + 2))              (Eq 17)
//
// Word counts are data-plane independent: `m * w` is the number of defined
// 8-byte payload words (an undefined `_` costs zero), and both the boxed
// and the packed executors (colop/ir/packed.h) charge exactly this via
// payload_bytes — so simnet predictions stay valid whichever plane runs.

#include "colop/mpsim/balanced_tree.h"
#include "colop/simnet/machine.h"

namespace colop::simnet {

// --- broadcast -----------------------------------------------------------
void bcast_binomial(SimMachine& mach, double m, double w, int root = 0);
void bcast_butterfly(SimMachine& mach, double m, double w, int root = 0);
/// van de Geijn large-block broadcast: binomial scatter of segments
/// (halving payloads) + Bruck allgather.  ~2 log p start-ups, ~2m words.
void bcast_vdg(SimMachine& mach, double m, double w);
/// van de Geijn allreduce: recursive-halving reduce-scatter + allgather.
void allreduce_vdg(SimMachine& mach, double m, double w, double ops);

// --- reduction -----------------------------------------------------------
/// Binomial-tree reduce to rank 0 (MPICH-like): ops per element per level.
void reduce_binomial(SimMachine& mach, double m, double w, double ops);
/// Butterfly (recursive-doubling) allreduce; the paper's model for both
/// reduce and allreduce.  Handles non-powers of two with the same
/// order-preserving pre/post fold as mpsim::allreduce.
void allreduce_butterfly(SimMachine& mach, double m, double w, double ops);

// --- scan ----------------------------------------------------------------
/// Butterfly scan: (prefix, total) per rank; up to 2 ops per element per
/// phase (Eq 17).
void scan_butterfly(SimMachine& mach, double m, double w, double ops);

// --- the paper's balanced collectives -------------------------------------
/// reduce_balanced over the unique balanced tree (rule SR-Reduction).
void reduce_balanced(SimMachine& mach, double m, double w, double ops);
/// scan_balanced butterfly (rule SS-Scan): one op2 sweep per phase.
void scan_balanced(SimMachine& mach, double m, double w, double ops);
/// allreduce_balanced: butterfly for 2^k, reduce_balanced + bcast otherwise.
void allreduce_balanced(SimMachine& mach, double m, double w, double ops);

// --- comcast (Section 3.4) -------------------------------------------------
/// bcast ; map#(repeat): broadcast one w-word block then rank k performs
/// digits(k) local levels of `ops_per_level` per element.
void comcast_repeat(SimMachine& mach, double m, double w, double ops_per_level,
                    bool butterfly_bcast = true);
/// Cost-optimal doubling: rank i < 2^k computes o (ops_o), sends the FULL
/// auxiliary state (state_w words/element) to i + 2^k, then computes e
/// (ops_e).  No redundant computation, more communication.
void comcast_costopt(SimMachine& mach, double m, double state_w, double ops_o,
                     double ops_e);
/// Naive comcast: bcast then rank k applies g k times (linear local work).
void comcast_naive(SimMachine& mach, double m, double w, double ops_g,
                   bool butterfly_bcast = true);

// --- local stages -----------------------------------------------------------
/// map f on every processor: m * ops compute units each.
void local_map(SimMachine& mach, double m, double ops);
/// iter f on the root only: levels * m * ops compute units.
void local_iter(SimMachine& mach, double m, double ops, double levels);

}  // namespace colop::simnet
