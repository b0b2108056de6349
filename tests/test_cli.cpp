// Tests for the command-line flag parser.
#include "src/common/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace tono {
namespace {

ArgParser make_parser() {
  ArgParser p{"prog", "test program"};
  p.add_flag("verbose", "say more");
  p.add_string("name", "a name", "default-name");
  p.add_double("rate", "a rate", 1.5);
  p.add_int("count", "a count", 7);
  p.add_string("required-thing", "no default");
  return p;
}

TEST(ArgParser, DefaultsApply) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_FALSE(p.flag("verbose"));
  EXPECT_EQ(p.string_value("name"), "default-name");
  EXPECT_DOUBLE_EQ(p.double_value("rate"), 1.5);
  EXPECT_EQ(p.int_value("count"), 7);
}

TEST(ArgParser, ValuesOverrideDefaults) {
  auto p = make_parser();
  const char* argv[] = {"prog",    "--verbose", "--name", "alice",      "--rate",
                        "2.75",    "--count",   "42",     "--required-thing", "y"};
  ASSERT_TRUE(p.parse(10, argv));
  EXPECT_TRUE(p.flag("verbose"));
  EXPECT_EQ(p.string_value("name"), "alice");
  EXPECT_DOUBLE_EQ(p.double_value("rate"), 2.75);
  EXPECT_EQ(p.int_value("count"), 42);
}

TEST(ArgParser, MissingRequiredFails) {
  auto p = make_parser();
  const char* argv[] = {"prog"};
  EXPECT_FALSE(p.parse(1, argv));
  EXPECT_NE(p.error().find("required-thing"), std::string::npos);
}

TEST(ArgParser, UnknownOptionFails) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--nope", "--required-thing", "x"};
  EXPECT_FALSE(p.parse(4, argv));
  EXPECT_NE(p.error().find("unknown option"), std::string::npos);
}

TEST(ArgParser, MissingValueFails) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x", "--rate"};
  EXPECT_FALSE(p.parse(4, argv));
  EXPECT_NE(p.error().find("needs a value"), std::string::npos);
}

TEST(ArgParser, NonNumericValueFails) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x", "--rate", "fast"};
  EXPECT_FALSE(p.parse(5, argv));
  EXPECT_NE(p.error().find("expects a number"), std::string::npos);
}

TEST(ArgParser, FractionalIntValueFails) {
  // kInt used to validate with strtod and then read with strtol: "1.5"
  // passed validation and silently truncated to 1. It must be rejected.
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x", "--count", "1.5"};
  EXPECT_FALSE(p.parse(5, argv));
  EXPECT_NE(p.error().find("expects an integer"), std::string::npos);
}

TEST(ArgParser, OverflowingIntValueFails) {
  // Out-of-range integers used to saturate via strtol without any error.
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x", "--count",
                        "99999999999999999999"};
  EXPECT_FALSE(p.parse(5, argv));
  EXPECT_NE(p.error().find("out of range"), std::string::npos);
}

TEST(ArgParser, NanDoubleValueFails) {
  // strtod happily parses "nan" — which would then poison every scenario
  // computation downstream. The parser must reject non-finite doubles.
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x", "--rate", "nan"};
  EXPECT_FALSE(p.parse(5, argv));
  EXPECT_NE(p.error().find("finite"), std::string::npos);
}

TEST(ArgParser, InfDoubleValueFails) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x", "--rate", "-inf"};
  EXPECT_FALSE(p.parse(5, argv));
  EXPECT_NE(p.error().find("finite"), std::string::npos);
}

TEST(ArgParser, OverflowingDoubleValueFails) {
  // "1e999" parses to +inf with ERANGE — an overflow, reported as such
  // rather than as a generic non-finite value.
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x", "--rate", "1e999"};
  EXPECT_FALSE(p.parse(5, argv));
  EXPECT_NE(p.error().find("out of range"), std::string::npos);
}

TEST(ArgParser, NegativeIntAccepted) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x", "--count", "-12"};
  ASSERT_TRUE(p.parse(5, argv));
  EXPECT_EQ(p.int_value("count"), -12);
}

TEST(ArgParser, NegativeNumbersAccepted) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x", "--rate", "-2.5"};
  ASSERT_TRUE(p.parse(5, argv));
  EXPECT_DOUBLE_EQ(p.double_value("rate"), -2.5);
}

TEST(ArgParser, HelpRequested) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(p.parse(2, argv));
  EXPECT_TRUE(p.help_requested());
  EXPECT_NE(p.help_text().find("--rate"), std::string::npos);
  EXPECT_NE(p.help_text().find("default 1.5"), std::string::npos);
}

TEST(ArgParser, PositionalCollected) {
  auto p = make_parser();
  const char* argv[] = {"prog", "pos1", "--required-thing", "x", "pos2"};
  ASSERT_TRUE(p.parse(5, argv));
  ASSERT_EQ(p.positional().size(), 2u);
  EXPECT_EQ(p.positional()[0], "pos1");
  EXPECT_EQ(p.positional()[1], "pos2");
}

TEST(ArgParser, HasReportsExplicitOnly) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x", "--name", "bob"};
  ASSERT_TRUE(p.parse(5, argv));
  EXPECT_TRUE(p.has("name"));
  EXPECT_FALSE(p.has("rate"));
}

TEST(ArgParser, DuplicateRegistrationThrows) {
  ArgParser p{"prog"};
  p.add_flag("x", "flag");
  EXPECT_THROW(p.add_double("x", "again"), std::invalid_argument);
}

TEST(ArgParser, WrongTypeAccessThrows) {
  auto p = make_parser();
  const char* argv[] = {"prog", "--required-thing", "x"};
  ASSERT_TRUE(p.parse(3, argv));
  EXPECT_THROW((void)p.flag("rate"), std::invalid_argument);
  EXPECT_THROW((void)p.double_value("verbose"), std::invalid_argument);
  EXPECT_THROW((void)p.string_value("missing"), std::invalid_argument);
}

/// A parser with one bounded flag of each kind, as the serving tools use them.
ArgParser make_bounded_parser() {
  ArgParser p{"prog"};
  p.add_int("shards", "shard count", 1, {.min = 1});
  p.add_int("port", "tcp port", 0, {.min = 0, .max = 65535});
  p.add_double("duration", "stream length", 10.0, {.above = 0.0});
  p.add_double("gain", "a gain", 1.0, {.min = 0.5, .max = 2.0});
  p.add_string("policy", "ring policy", "drop", {"drop", "block"});
  return p;
}

/// Parses `argv` with the bounded parser and returns its error ("" = ok).
std::string bounded_error(std::vector<const char*> argv) {
  auto p = make_bounded_parser();
  argv.insert(argv.begin(), "prog");
  return p.parse(static_cast<int>(argv.size()), argv.data()) ? "" : p.error();
}

TEST(ArgParserBounds, OutOfBoundsValuesFailNamingFlagAndBound) {
  const struct {
    std::vector<const char*> argv;
    const char* flag;
    const char* bound;
  } cases[] = {
      {{"--shards", "0"}, "--shards", ">= 1"},                  // int below min
      {{"--duration", "0"}, "--duration", "> 0"},               // at an exclusive min
      {{"--duration", "-0.5"}, "--duration", "> 0"},            // below it
      {{"--port", "65536"}, "--port", "<= 65535"},              // int above max
      {{"--gain", "2.5"}, "--gain", "<= 2"},                    // double above max
      {{"--policy", "shed"}, "--policy", "one of drop|block"},  // outside choices
  };
  for (const auto& c : cases) {
    const std::string error = bounded_error(c.argv);
    EXPECT_NE(error.find(c.flag), std::string::npos) << c.flag << ": " << error;
    EXPECT_NE(error.find(c.bound), std::string::npos) << c.flag << ": " << error;
  }
}

TEST(ArgParserBounds, ValuesOnTheBoundsAreAccepted) {
  EXPECT_EQ(bounded_error({"--shards", "1", "--port", "65535", "--gain", "2", "--duration",
                           "1e-9", "--policy", "block"}),
            "");
}

TEST(ArgParserBounds, BoundedDefaultsAreAccepted) {
  auto p = make_bounded_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.parse(1, argv)) << p.error();
  EXPECT_EQ(p.int_value("shards"), 1);
  EXPECT_EQ(p.int_value("port"), 0);
  EXPECT_DOUBLE_EQ(p.double_value("duration"), 10.0);
  EXPECT_EQ(p.string_value("policy"), "drop");
  EXPECT_NE(p.help_text().find("[>= 1]"), std::string::npos);
}

TEST(ArgParserBounds, DefaultOutsideBoundsThrows) {
  ArgParser p{"prog"};
  EXPECT_THROW(p.add_int("shards", "", 0, {.min = 1}), std::invalid_argument);
  EXPECT_THROW(p.add_string("policy", "", "shed", {"drop", "block"}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tono
