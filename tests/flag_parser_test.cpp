// Error-path contract tests for the flag layer (src/apps/flag_parser.hpp).
//
// The parser's failure mode is process exit with code 2 (usage errors) or 0
// (--help) — the contract the daemon mains and ci.sh rely on — so the bad
// paths run as gtest death tests: each EXPECT_EXIT forks, runs the parse in
// the child, and checks the exit code plus the stderr diagnostic.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/flag_parser.hpp"

namespace brisk::apps {
namespace {

// argv builder: death-test children re-run parse() from scratch, so plain
// static storage per call is fine (the vectors just have to outlive parse()).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
    strings_.insert(strings_.begin(), "test_program");
    for (auto& s : strings_) pointers_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> pointers_;
};

FlagRegistry make_registry() {
  FlagRegistry flags("test_program", "flag parser contract test fixture");
  flags.add_int("port", 7411, "TCP port to listen on")
      .add_string("shm", "", "shared-memory ring name")
      .add_double("drop", 0.0, "drop probability")
      .add_bool("verbose", false, "log at info level");
  return flags;
}

void parse(std::vector<std::string> args) {
  Argv argv(std::move(args));
  FlagRegistry flags = make_registry();
  flags.parse(argv.argc(), argv.argv());
}

using FlagParserDeathTest = ::testing::Test;

TEST(FlagParserDeathTest, UnknownFlagExitsTwo) {
  EXPECT_EXIT(parse({"--no-such-flag=1"}), ::testing::ExitedWithCode(2),
              "unknown flag: --no-such-flag");
}

TEST(FlagParserDeathTest, PositionalArgumentExitsTwo) {
  EXPECT_EXIT(parse({"stray"}), ::testing::ExitedWithCode(2),
              "unexpected argument: stray");
}

TEST(FlagParserDeathTest, BadIntegerExitsTwo) {
  EXPECT_EXIT(parse({"--port=eleven"}), ::testing::ExitedWithCode(2),
              "flag --port expects an integer, got 'eleven'");
}

TEST(FlagParserDeathTest, BadDoubleExitsTwo) {
  EXPECT_EXIT(parse({"--drop", "often"}), ::testing::ExitedWithCode(2),
              "flag --drop expects a number, got 'often'");
}

TEST(FlagParserDeathTest, BadBooleanExitsTwo) {
  EXPECT_EXIT(parse({"--verbose=maybe"}), ::testing::ExitedWithCode(2),
              "flag --verbose expects a boolean");
}

// `--port --shm x` leaves --port with the bare-boolean value "true", which
// fails integer type-checking — a missing value is a usage error, not a
// silently-absorbed flag.
TEST(FlagParserDeathTest, MissingValueExitsTwo) {
  EXPECT_EXIT(parse({"--port", "--shm", "x"}), ::testing::ExitedWithCode(2),
              "flag --port expects an integer, got 'true'");
}

TEST(FlagParserDeathTest, HelpExitsZero) {
  EXPECT_EXIT(parse({"--help"}), ::testing::ExitedWithCode(0), "");
}

TEST(FlagParserDeathTest, ReadingUndeclaredFlagExitsTwo) {
  auto read_undeclared = [] {
    FlagRegistry flags = make_registry();
    Argv argv({});
    flags.parse(argv.argc(), argv.argv());
    (void)flags.num("frame-us");  // never declared above
  };
  EXPECT_EXIT(read_undeclared(), ::testing::ExitedWithCode(2),
              "flag --frame-us read but never declared");
}

TEST(FlagParserDeathTest, ReadingWithWrongTypeExitsTwo) {
  auto read_wrong_type = [] {
    FlagRegistry flags = make_registry();
    Argv argv({});
    flags.parse(argv.argc(), argv.argv());
    (void)flags.str("port");  // declared as an integer
  };
  EXPECT_EXIT(read_wrong_type(), ::testing::ExitedWithCode(2),
              "flag --port read with the wrong type");
}

TEST(FlagParserDeathTest, DuplicateDeclarationExitsTwo) {
  auto declare_twice = [] {
    FlagRegistry flags("test_program", "dup");
    flags.add_int("port", 1, "first").add_int("port", 2, "second");
  };
  EXPECT_EXIT(declare_twice(), ::testing::ExitedWithCode(2),
              "flag --port declared twice");
}

// Counts, sizes and node ids: a negative value or one past the target type
// exits 2 naming the flag instead of wrapping (-1 as a uint32_t ring size is
// a ~4 GiB region; -1 as a node id is the reserved metrics node).
TEST(FlagParserDeathTest, CountOutOfRangeExitsTwo) {
  auto read_count = [](std::vector<std::string> args) {
    FlagRegistry flags("test_program", "counts");
    flags.add_int("output-ring-bytes", 1 << 20, "ring size").add_int("node", 1, "node id");
    Argv argv(std::move(args));
    flags.parse(argv.argc(), argv.argv());
    (void)flags.count<std::uint32_t>("output-ring-bytes");
    (void)flags.node_id("node");
    std::exit(0);
  };
  EXPECT_EXIT(read_count({"--output-ring-bytes", "-1"}), ::testing::ExitedWithCode(2),
              "flag --output-ring-bytes must be in \\[0, 4294967295\\], got -1");
  EXPECT_EXIT(read_count({"--output-ring-bytes", "4294967296"}), ::testing::ExitedWithCode(2),
              "flag --output-ring-bytes must be in");
  EXPECT_EXIT(read_count({"--node", "-1"}), ::testing::ExitedWithCode(2),
              "flag --node must be in");
  EXPECT_EXIT(read_count({"--node", "4294967295"}), ::testing::ExitedWithCode(2),
              "flag --node must be in \\[0, 4294967294\\]");
  EXPECT_EXIT(read_count({"--output-ring-bytes", "4294967295", "--node", "4294967294"}),
              ::testing::ExitedWithCode(0), "");
}

TEST(FlagRegistryTest, CountReadsInRangeValues) {
  Argv argv({"--port=0"});
  FlagRegistry flags = make_registry();
  flags.parse(argv.argc(), argv.argv());
  EXPECT_EQ(flags.count<std::uint16_t>("port"), 0u);
}

// Golden --help text: generated from the declarations, one line per flag,
// with type and default. help_text() is what parse() prints before exit 0.
TEST(FlagRegistryTest, HelpTextGolden) {
  FlagRegistry flags = make_registry();
  const std::string expected =
      "usage: test_program [--flag[=value] ...]\n"
      "  flag parser contract test fixture\n"
      "\n"
      "  --port     TCP port to listen on [int, default: 7411]\n"
      "  --shm      shared-memory ring name [string, default: \"\"]\n"
      "  --drop     drop probability [float, default: 0]\n"
      "  --verbose  log at info level [bool, default: false]\n"
      "  --help     print this help and exit\n";
  EXPECT_EQ(flags.help_text(), expected);
}

TEST(FlagRegistryTest, DefaultsWhenAbsent) {
  Argv argv({});
  FlagRegistry flags = make_registry();
  flags.parse(argv.argc(), argv.argv());
  EXPECT_EQ(flags.num("port"), 7411);
  EXPECT_EQ(flags.str("shm"), "");
  EXPECT_DOUBLE_EQ(flags.real("drop"), 0.0);
  EXPECT_FALSE(flags.flag("verbose"));
  EXPECT_FALSE(flags.provided("port"));
}

TEST(FlagRegistryTest, GoodValuesParse) {
  Argv argv({"--port=9000", "--shm", "ring", "--drop=0.25", "--verbose"});
  FlagRegistry flags = make_registry();
  flags.parse(argv.argc(), argv.argv());
  EXPECT_EQ(flags.num("port"), 9000);
  EXPECT_EQ(flags.str("shm"), "ring");
  EXPECT_DOUBLE_EQ(flags.real("drop"), 0.25);
  EXPECT_TRUE(flags.flag("verbose"));
  EXPECT_TRUE(flags.provided("port"));
  EXPECT_FALSE(flags.provided("help"));
}

}  // namespace
}  // namespace brisk::apps
