#include "common/flags.hpp"

#include <gtest/gtest.h>

namespace kar::common {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags::parse_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, EqualsSyntax) {
  const Flags f = parse({"--runs=30", "--technique=nip", "--rate=200e6"});
  EXPECT_EQ(f.get_int("runs", 0), 30);
  EXPECT_EQ(f.get_string("technique", ""), "nip");
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0), 200e6);
}

TEST(Flags, SpaceSyntax) {
  const Flags f = parse({"--runs", "10", "--name", "fig4"});
  EXPECT_EQ(f.get_int("runs", 0), 10);
  EXPECT_EQ(f.get_string("name", ""), "fig4");
}

TEST(Flags, BooleanForms) {
  const Flags f = parse({"--verbose", "--no-color", "--flag=false"});
  EXPECT_TRUE(f.get_bool("verbose", false));
  EXPECT_FALSE(f.get_bool("color", true));
  EXPECT_FALSE(f.get_bool("flag", true));
  EXPECT_TRUE(f.get_bool("absent", true));
}

TEST(Flags, BooleanSynonyms) {
  const Flags f = parse({"--a=yes", "--b=0", "--c=on"});
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_FALSE(f.get_bool("b", true));
  EXPECT_TRUE(f.get_bool("c", false));
  const Flags bad = parse({"--x=maybe"});
  EXPECT_TRUE(bad.get_bool("x", true));  // the fallback
  EXPECT_EQ(bad.malformed().size(), 1u);
}

TEST(Flags, PositionalArguments) {
  const Flags f = parse({"first", "--k=v", "second"});
  EXPECT_EQ(f.positional(), (std::vector<std::string>{"first", "second"}));
  EXPECT_TRUE(f.has("k"));
  EXPECT_FALSE(f.has("missing"));
}

TEST(Flags, FallbacksWhenAbsent) {
  const Flags f = parse({});
  EXPECT_EQ(f.get_int("n", 5), 5);
  EXPECT_EQ(f.get_string("s", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(f.get_double("d", 1.5), 1.5);
}

TEST(Flags, MalformedNumbersAreRecorded) {
  const Flags f = parse({"--n=abc", "--d=1.2.3"});
  EXPECT_EQ(f.get_int("n", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("d", 2.5), 2.5);
  EXPECT_EQ(f.malformed(),
            (std::vector<std::string>{"flag --n: not a number: abc",
                                      "flag --d: not a number: 1.2.3"}));
}

TEST(Flags, FlagFollowedByFlagIsBoolean) {
  const Flags f = parse({"--a", "--b=2"});
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_EQ(f.get_int("b", 0), 2);
}

TEST(Flags, UnreadListsFlagsNoGetterAskedFor) {
  const Flags f = parse({"--port=1", "--no-color", "--typo=3", "--quiet"});
  EXPECT_EQ(f.unread(),
            (std::vector<std::string>{"color", "port", "quiet", "typo"}));
  (void)f.get_int("port", 0);
  (void)f.get_bool("color", true);
  EXPECT_FALSE(f.has("absent"));
  EXPECT_TRUE(f.has("quiet"));
  EXPECT_EQ(f.unread(), (std::vector<std::string>{"typo"}));
}

}  // namespace
}  // namespace kar::common
