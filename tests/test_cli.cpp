#include <gtest/gtest.h>

#include <array>

#include "util/cli.hpp"

namespace skiptrain::util {
namespace {

ArgParser make_parser() {
  ArgParser args("test", "test parser");
  args.add_int("nodes", 256, "node count");
  args.add_double("lr", 0.1, "learning rate");
  args.add_string("dataset", "cifar", "dataset name");
  args.add_flag("full", "full scale");
  return args;
}

TEST(Cli, DefaultsApply) {
  ArgParser args = make_parser();
  const std::array<const char*, 1> argv{"prog"};
  args.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.get_int("nodes"), 256);
  EXPECT_DOUBLE_EQ(args.get_double("lr"), 0.1);
  EXPECT_EQ(args.get_string("dataset"), "cifar");
  EXPECT_FALSE(args.get_flag("full"));
}

TEST(Cli, EqualsSyntax) {
  ArgParser args = make_parser();
  const std::array<const char*, 4> argv{"prog", "--nodes=64", "--lr=0.5",
                                        "--dataset=femnist"};
  args.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.get_int("nodes"), 64);
  EXPECT_DOUBLE_EQ(args.get_double("lr"), 0.5);
  EXPECT_EQ(args.get_string("dataset"), "femnist");
}

TEST(Cli, SpaceSyntax) {
  ArgParser args = make_parser();
  const std::array<const char*, 3> argv{"prog", "--nodes", "32"};
  args.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(args.get_int("nodes"), 32);
}

TEST(Cli, FlagSetsTrue) {
  ArgParser args = make_parser();
  const std::array<const char*, 2> argv{"prog", "--full"};
  args.parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(args.get_flag("full"));
}

TEST(Cli, UnknownOptionThrows) {
  ArgParser args = make_parser();
  const std::array<const char*, 2> argv{"prog", "--bogus=1"};
  EXPECT_THROW(args.parse(static_cast<int>(argv.size()), argv.data()),
               std::runtime_error);
}

TEST(Cli, MalformedIntThrows) {
  ArgParser args = make_parser();
  const std::array<const char*, 2> argv{"prog", "--nodes=abc"};
  EXPECT_THROW(args.parse(static_cast<int>(argv.size()), argv.data()),
               std::runtime_error);
}

TEST(Cli, MalformedDoubleThrows) {
  ArgParser args = make_parser();
  const std::array<const char*, 2> argv{"prog", "--lr=fast"};
  EXPECT_THROW(args.parse(static_cast<int>(argv.size()), argv.data()),
               std::runtime_error);
}

TEST(Cli, NumericValueTable) {
  struct Case {
    const char* arg;
    bool accepted;
  };
  const Case cases[] = {
      {"--nodes=9223372036854775807", true},
      {"--nodes=-9223372036854775808", true},
      {"--nodes=9223372036854775808", false},  // strtoll clamps: ERANGE
      {"--nodes=99999999999999999999", false},
      {"--nodes=-99999999999999999999", false},
      {"--nodes=", false},
      {"--nodes=12abc", false},
      {"--nodes=1.5", false},
      {"--lr=1e-3", true},
      {"--lr=-0.5", true},
      {"--lr=1e308", true},
      {"--lr=1e999", false},  // overflows to inf: ERANGE
      {"--lr=1e-400", false},  // underflows: ERANGE
      {"--lr=nan", false},
      {"--lr=inf", false},
      {"--lr=-infinity", false},
      {"--lr=", false},
      {"--lr=0.1x", false},
  };
  for (const Case& c : cases) {
    ArgParser args = make_parser();
    const std::array<const char*, 2> argv{"prog", c.arg};
    if (c.accepted) {
      EXPECT_NO_THROW(args.parse(static_cast<int>(argv.size()), argv.data()))
          << c.arg;
    } else {
      EXPECT_THROW(args.parse(static_cast<int>(argv.size()), argv.data()),
                   std::runtime_error)
          << c.arg;
    }
  }
}

TEST(Cli, MissingValueThrows) {
  ArgParser args = make_parser();
  const std::array<const char*, 2> argv{"prog", "--nodes"};
  EXPECT_THROW(args.parse(static_cast<int>(argv.size()), argv.data()),
               std::runtime_error);
}

TEST(Cli, FlagWithValueThrows) {
  ArgParser args = make_parser();
  const std::array<const char*, 2> argv{"prog", "--full=1"};
  EXPECT_THROW(args.parse(static_cast<int>(argv.size()), argv.data()),
               std::runtime_error);
}

TEST(Cli, PositionalArgumentRejected) {
  ArgParser args = make_parser();
  const std::array<const char*, 2> argv{"prog", "stray"};
  EXPECT_THROW(args.parse(static_cast<int>(argv.size()), argv.data()),
               std::runtime_error);
}

TEST(Cli, DuplicateOptionRegistrationThrows) {
  ArgParser args("p", "d");
  args.add_int("x", 1, "first");
  EXPECT_THROW(args.add_int("x", 2, "dup"), std::runtime_error);
}

TEST(Cli, UnknownGetterThrows) {
  ArgParser args = make_parser();
  EXPECT_THROW(args.get_int("lr"), std::runtime_error);     // wrong type
  EXPECT_THROW(args.get_int("nothing"), std::runtime_error);  // missing
}

TEST(Cli, UsageListsOptions) {
  ArgParser args = make_parser();
  const std::string usage = args.usage();
  EXPECT_NE(usage.find("--nodes"), std::string::npos);
  EXPECT_NE(usage.find("--full"), std::string::npos);
  EXPECT_NE(usage.find("--help"), std::string::npos);
}

}  // namespace
}  // namespace skiptrain::util
