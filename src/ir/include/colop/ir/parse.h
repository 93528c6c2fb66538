#pragma once
// Textual program syntax — the MPI-flavoured surface language:
//
//   program   := stage ( ';' stage )*
//   stage     := 'map' '(' mapfn ')'
//              | 'scan' '(' op ')'
//              | 'reduce' '(' op [ ',' 'root' '=' INT ] ')'
//              | 'allreduce' '(' op ')'
//              | 'bcast' [ '(' 'root' '=' INT ')' ]
//              | 'istart_reduce' '(' op ( ',' key )* ')'     key: root=, h=
//              | 'istart_allreduce' '(' op ( ',' 'h' '=' INT )* ')'
//              | 'istart_bcast' [ '(' key ( ',' key )* ')' ]  key: root=, h=
//              | 'wait' [ '(' 'h' '=' INT ')' ]
//   mapfn     := 'pair' | 'triple' | 'quadruple' | 'pi1' | 'id'
//   op        := '+' | '*' | 'max' | 'min' | 'band' | 'bor' | 'gcd'
//              | '+mod' INT | '*mod' INT | 'f+' | 'f*' | 'mat2' | 'first'
//
// The keywords and which arguments each takes are the textual rows of the
// stage-kind table (stage.h).  Each key appears at most once; `root=` and
// `h=` take an integer in [0, INT_MAX], a modulus one in [1, INT64_MAX].
//
// This is exactly the sub-language Program::show() prints for source
// programs (rewritten programs additionally contain derived operators,
// which are not parseable — they exist only as compiled closures).
// Whitespace is insignificant.  Used by the `colopt` command-line driver
// and handy in tests.

#include <string>

#include "colop/ir/program.h"

namespace colop::ir {

/// Parse a program; throws colop::Error with position info on bad input.
[[nodiscard]] Program parse_program(const std::string& text);

/// Look up a standard operator by its surface name; throws on unknown.
[[nodiscard]] BinOpPtr parse_op(const std::string& name);

}  // namespace colop::ir
