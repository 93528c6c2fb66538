// The textual program syntax: parsing, show() round-trips, error reporting.

#include <gtest/gtest.h>

#include "colop/ir/ir.h"
#include "colop/ir/parse.h"
#include "colop/support/error.h"
#include "colop/support/rng.h"

namespace colop::ir {
namespace {

TEST(Parse, SingleStages) {
  EXPECT_EQ(parse_program("bcast").show(), "bcast");
  EXPECT_EQ(parse_program("scan(+)").show(), "scan(+)");
  EXPECT_EQ(parse_program("reduce(*)").show(), "reduce(*)");
  EXPECT_EQ(parse_program("allreduce(max)").show(), "allreduce(max)");
  EXPECT_EQ(parse_program("map(pair)").show(), "map(pair)");
}

TEST(Parse, RootArguments) {
  EXPECT_EQ(parse_program("reduce(+,root=3)").show(), "reduce(+,root=3)");
  EXPECT_EQ(parse_program("bcast(root=2)").show(), "bcast(root=2)");
  EXPECT_EQ(parse_program("reduce(+, root = 3)").show(), "reduce(+,root=3)");
}

TEST(Parse, FullProgramAndWhitespace) {
  const Program p =
      parse_program("  map( pair ) ;scan(+);  reduce( * , root=1 ) ; bcast ");
  EXPECT_EQ(p.show(), "map(pair) ; scan(+) ; reduce(*,root=1) ; bcast");
  EXPECT_EQ(p.size(), 4u);
}

TEST(Parse, ShowRoundTripsForSourcePrograms) {
  const std::vector<std::string> programs = {
      "scan(*) ; reduce(+) ; map(id) ; bcast",
      "bcast ; scan(+) ; scan(+)",
      "map(pair) ; allreduce(gcd) ; map(pi1)",
      "scan(+mod97) ; scan(*mod97)",
      "map(quadruple) ; map(pi1)",
      "reduce(band) ; bcast",
  };
  for (const auto& text : programs) {
    const Program p = parse_program(text);
    EXPECT_EQ(parse_program(p.show()).show(), p.show()) << text;
  }
}

TEST(Parse, AllStandardOperators) {
  for (const std::string name : {"+", "*", "max", "min", "band", "bor", "gcd",
                                 "f+", "f*", "mat2", "first"}) {
    EXPECT_EQ(parse_op(name)->name(), name) << name;
  }
  EXPECT_EQ(parse_op("+mod97")->name(), "+mod97");
  EXPECT_EQ(parse_op("*mod31")->name(), "*mod31");
}

TEST(Parse, ParsedProgramsEvaluate) {
  const Program p = parse_program("scan(+) ; allreduce(max)");
  const Dist out = p.eval_reference(dist_of_ints({3, -1, 4, -1, 5}));
  // prefix sums: 3,2,6,5,10; max = 10 everywhere.
  for (const auto& b : out) EXPECT_EQ(b[0].as_int(), 10);
}

TEST(Parse, ErrorsCarryPosition) {
  for (const std::string bad : {"", "scatter(+)", "scan()", "scan(+",
                                "map(unknownfn)", "reduce(+,depth=3)",
                                "scan(+) ; ; scan(+)", "scan(nosuchop)",
                                "bcast(root=)", "reduce(+mod0)", "reduce(+mod)",
                                "reduce(+mod7x)", "reduce(*mod-3)",
                                "reduce(*mod99999999999999999999)",
                                "reduce(+,root=99999999999)",
                                "reduce(+,root=-1)", "bcast(root=-2)",
                                "istart_bcast(h=-1)", "wait(h=2147483648)",
                                "istart_bcast(h=1,h=2)",
                                "istart_bcast(root=1,root=2)"}) {
    EXPECT_THROW((void)parse_program(bad), Error) << "'" << bad << "'";
  }
  try {
    (void)parse_program("scan(+) ; blah");
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("position"), std::string::npos);
  }
}

TEST(ParseFuzz, RandomProgramsRoundTripThroughShow) {
  Rng rng(0xF0F0);
  const std::vector<std::string> ops = {"+",      "*",   "max",   "min",
                                        "band",   "bor", "gcd",   "+mod97",
                                        "*mod97", "f+",  "f*"};
  const std::vector<std::string> maps = {"pair", "triple", "quadruple", "id"};
  for (int trial = 0; trial < 200; ++trial) {
    std::string text;
    const int n = static_cast<int>(rng.uniform(1, 7));
    for (int i = 0; i < n; ++i) {
      if (i) text += " ; ";
      // Split-phase arguments are optional; h=0 is the default, which
      // show() drops, so drawing it checks the round trip without it.
      const auto root = [&rng] {
        return ",root=" + std::to_string(rng.uniform(0, 3));
      };
      const auto handle = [&rng] { return ",h=" + std::to_string(rng.uniform(0, 3)); };
      const auto op = [&] { return ops[static_cast<std::size_t>(rng.uniform(0, 10))]; };
      switch (rng.uniform(0, 8)) {
        case 0:
          text += "map(" + maps[static_cast<std::size_t>(rng.uniform(0, 3))] + ")";
          break;
        case 1:
          text += "scan(" + op() + ")";
          break;
        case 2:
          text += "reduce(" + op() + root() + ")";
          break;
        case 3:
          text += "allreduce(" + op() + ")";
          break;
        case 4: {
          std::string args = op();
          if (rng.uniform(0, 1)) args += root();
          if (rng.uniform(0, 1)) args += handle();
          text += "istart_reduce(" + args + ")";
          break;
        }
        case 5:
          text += "istart_allreduce(" + op() + (rng.uniform(0, 1) ? handle() : "") +
                  ")";
          break;
        case 6: {
          std::string args = rng.uniform(0, 1) ? root() : "";
          if (rng.uniform(0, 1)) args += handle();
          text += args.empty() ? "istart_bcast"
                               : "istart_bcast(" + args.substr(1) + ")";
          break;
        }
        case 7:
          text += rng.uniform(0, 1) ? "wait" : "wait(" + handle().substr(1) + ")";
          break;
        default:
          text += "bcast";
          break;
      }
    }
    const Program once = parse_program(text);
    const Program twice = parse_program(once.show());
    EXPECT_EQ(once.show(), twice.show()) << text;
    EXPECT_EQ(once.size(), twice.size());
  }
}

}  // namespace
}  // namespace colop::ir
