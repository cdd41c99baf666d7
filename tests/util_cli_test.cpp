#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <new>
#include <string>

#include "util/error.hpp"

namespace pcmax {
namespace {

CliParser make_parser() {
  CliParser cli("test tool");
  cli.add_int("n", 10, "number of things");
  cli.add_double("eps", 0.3, "accuracy");
  cli.add_string("family", "U(1,100)", "instance family");
  cli.add_bool("verbose", false, "chatty output");
  return cli;
}

TEST(CliParser, DefaultsApplyWithoutArguments) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_EQ(cli.get_int("n"), 10);
  EXPECT_DOUBLE_EQ(cli.get_double("eps"), 0.3);
  EXPECT_EQ(cli.get_string("family"), "U(1,100)");
  EXPECT_FALSE(cli.get_bool("verbose"));
}

TEST(CliParser, ParsesSpaceSeparatedValues) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--n", "42", "--eps", "0.1"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("n"), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("eps"), 0.1);
}

TEST(CliParser, ParsesEqualsForm) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--n=7", "--family=U(1,10)", "--verbose=true"};
  ASSERT_TRUE(cli.parse(4, argv));
  EXPECT_EQ(cli.get_int("n"), 7);
  EXPECT_EQ(cli.get_string("family"), "U(1,10)");
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(CliParser, BareBoolFlagSetsTrue) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(CliParser, NegativeNumbers) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--n", "-3", "--eps", "-0.5"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("n"), -3);
  EXPECT_DOUBLE_EQ(cli.get_double("eps"), -0.5);
}

TEST(CliParser, HelpReturnsFalse) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(CliParser, UnknownFlagThrows) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--bogus", "1"};
  EXPECT_THROW((void)cli.parse(3, argv), InvalidArgumentError);
}

TEST(CliParser, PositionalArgumentThrows) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW((void)cli.parse(2, argv), InvalidArgumentError);
}

TEST(CliParser, MissingValueThrows) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--n"};
  EXPECT_THROW((void)cli.parse(2, argv), InvalidArgumentError);
}

TEST(CliParser, MalformedNumbersThrow) {
  {
    CliParser cli = make_parser();
    const char* argv[] = {"prog", "--n", "abc"};
    EXPECT_THROW((void)cli.parse(3, argv), InvalidArgumentError);
  }
  {
    CliParser cli = make_parser();
    const char* argv[] = {"prog", "--eps", "1.2.3"};
    EXPECT_THROW((void)cli.parse(3, argv), InvalidArgumentError);
  }
  {
    CliParser cli = make_parser();
    const char* argv[] = {"prog", "--verbose=maybe"};
    EXPECT_THROW((void)cli.parse(2, argv), InvalidArgumentError);
  }
}

TEST(CliParser, TypeMismatchedAccessThrows) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(cli.parse(1, argv));
  EXPECT_THROW((void)cli.get_double("n"), InvalidArgumentError);
  EXPECT_THROW((void)cli.get_int("never-registered"), InvalidArgumentError);
}

TEST(CliParser, DuplicateRegistrationThrows) {
  CliParser cli("doc");
  cli.add_int("x", 1, "first");
  EXPECT_THROW(cli.add_int("x", 2, "dup"), InvalidArgumentError);
}

TEST(CliParser, UsageListsFlagsAndDefaults) {
  CliParser cli = make_parser();
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("--n"), std::string::npos);
  EXPECT_NE(usage.find("default: 10"), std::string::npos);
  EXPECT_NE(usage.find("instance family"), std::string::npos);
}

TEST(CliParser, LastOccurrenceWins) {
  CliParser cli = make_parser();
  const char* argv[] = {"prog", "--n", "1", "--n", "2"};
  ASSERT_TRUE(cli.parse(5, argv));
  EXPECT_EQ(cli.get_int("n"), 2);
}

TEST(RunMain, OutOfMemoryPrintsAnErrorAndReturnsOne) {
  testing::internal::CaptureStderr();
  const int code = run_main([]() -> int { throw std::bad_alloc(); });
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(code, 1);
  EXPECT_EQ(err.rfind("error: ", 0), 0u) << err;
}

}  // namespace
}  // namespace pcmax
