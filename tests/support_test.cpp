// Unit tests for nlh::support: statistics, RNG, tables, CLI.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace ns = nlh::support;

// ---------------------------------------------------------------- stats ----

TEST(BatchStats, MeanAndStddev) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(ns::mean(xs), 2.5);
  EXPECT_NEAR(ns::stddev(xs), std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(ns::mean({}), 0.0);
}

TEST(ImbalanceMetrics, BalancedIsZero) {
  EXPECT_DOUBLE_EQ(ns::imbalance_cov({1.0, 1.0, 1.0}), 0.0);
}

TEST(ImbalanceMetrics, KnownImbalance) {
  // One node doing double work.
  EXPECT_GT(ns::imbalance_cov({2.0, 1.0, 1.0}), 0.0);
}

TEST(ImbalanceMetrics, AllZeroBusyIsZero) {
  EXPECT_DOUBLE_EQ(ns::imbalance_cov({0.0, 0.0}), 0.0);
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicForSeed) {
  ns::rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  ns::rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  ns::rng g(123);
  for (int i = 0; i < 10000; ++i) {
    const double x = g.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversRange) {
  ns::rng g(99);
  std::vector<int> hits(5, 0);
  for (int i = 0; i < 5000; ++i) ++hits[static_cast<std::size_t>(g.uniform_int(0, 4))];
  for (int h : hits) EXPECT_GT(h, 800);  // ~1000 each
}

TEST(Rng, UniformIntSinglePoint) {
  ns::rng g(5);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(g.uniform_int(3, 3), 3);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  ns::rng g(2024);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(g.normal(5.0, 2.0));
  EXPECT_NEAR(ns::mean(xs), 5.0, 0.1);
  EXPECT_NEAR(ns::stddev(xs), 2.0, 0.1);
}

TEST(Rng, ReseedReproduces) {
  ns::rng g(11);
  const auto x = g.next_u64();
  g.reseed(11);
  EXPECT_EQ(g.next_u64(), x);
}

// ---------------------------------------------------------------- table ----

TEST(Table, AlignedPrint) {
  ns::table t({"name", "value"});
  t.row().add("x").add(1.5);
  t.row().add("long-name").add(2);
  std::ostringstream os;
  t.print(os);
  const auto s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("long-name"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, CsvOutput) {
  ns::table t({"a", "b"});
  t.row().add(1).add(2);
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, FmtDouble) {
  EXPECT_EQ(ns::fmt_double(1.0, 4), "1");
  EXPECT_EQ(ns::fmt_double(0.125, 4), "0.125");
  EXPECT_EQ(ns::fmt_double(1234567.0, 3), "1.23e+06");
}

// ------------------------------------------------------------------ cli ----

TEST(Cli, KeyValuePairs) {
  const char* argv[] = {"prog", "--n", "64", "--eps", "0.25", "--verbose"};
  ns::cli c(6, const_cast<char**>(argv));
  EXPECT_EQ(c.get_int("n", 0), 64);
  EXPECT_DOUBLE_EQ(c.get_double("eps", 0.0), 0.25);
  EXPECT_TRUE(c.get_bool("verbose", false));
  EXPECT_EQ(c.get_int("missing", 7), 7);
}

TEST(Cli, EqualsSyntax) {
  const char* argv[] = {"prog", "--n=32"};
  ns::cli c(2, const_cast<char**>(argv));
  EXPECT_EQ(c.get_int("n", 0), 32);
}

TEST(Cli, Positional) {
  const char* argv[] = {"prog", "file.txt", "--k", "2", "other"};
  ns::cli c(5, const_cast<char**>(argv));
  ASSERT_EQ(c.positional().size(), 2u);
  EXPECT_EQ(c.positional()[0], "file.txt");
  EXPECT_EQ(c.positional()[1], "other");
}

TEST(Cli, BoolParsing) {
  const char* argv[] = {"prog", "--a", "yes", "--b", "0"};
  ns::cli c(5, const_cast<char**>(argv));
  EXPECT_TRUE(c.get_bool("a", false));
  EXPECT_FALSE(c.get_bool("b", true));
}

TEST(Cli, MalformedNumbersKeepTheDefault) {
  const char* argv[] = {"prog", "--n", "abc", "--eps", "0.5x", "--safety", "0.25"};
  ns::cli c(7, const_cast<char**>(argv));
  EXPECT_EQ(c.get_int("n", 64), 64);             // not a number
  EXPECT_DOUBLE_EQ(c.get_double("eps", 0.5), 0.5);  // trailing garbage
  EXPECT_DOUBLE_EQ(c.get_double("safety", 0.5), 0.25);
}

TEST(Cli, DoubleParsesScientificNotation) {
  const char* argv[] = {"prog", "--dt", "1e-4"};
  ns::cli c(3, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(c.get_double("dt", 0.0), 1e-4);
}

namespace {
enum class color { red, green, blue };
const std::vector<std::pair<std::string, color>> kColors = {
    {"red", color::red}, {"green", color::green}, {"blue", color::blue}};
}  // namespace

TEST(Cli, GetEnumMapsClosedSetToEnum) {
  const char* argv[] = {"prog", "--tint", "green"};
  ns::cli c(3, const_cast<char**>(argv));
  EXPECT_EQ(c.get_enum<color>("tint", color::red, kColors), color::green);
}

TEST(Cli, GetEnumAbsentKeyYieldsDefault) {
  const char* argv[] = {"prog"};
  ns::cli c(1, const_cast<char**>(argv));
  EXPECT_EQ(c.get_enum<color>("tint", color::blue, kColors), color::blue);
}

TEST(Cli, GetEnumUnknownValueThrowsNamingTheValidSpellings) {
  const char* argv[] = {"prog", "--tint", "grene"};
  ns::cli c(3, const_cast<char**>(argv));
  try {
    c.get_enum<color>("tint", color::red, kColors);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--tint"), std::string::npos) << msg;
    EXPECT_NE(msg.find("grene"), std::string::npos) << msg;
    EXPECT_NE(msg.find("red"), std::string::npos) << msg;
    EXPECT_NE(msg.find("green"), std::string::npos) << msg;
    EXPECT_NE(msg.find("blue"), std::string::npos) << msg;
  }
}
