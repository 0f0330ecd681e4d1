#include "util/string_util.h"

#include <gtest/gtest.h>

namespace texrheo {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(TrimTest, RemovesOuterWhitespaceOnly) {
  EXPECT_EQ(Trim("  hello world \t"), "hello world");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \n "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(ToLowerTest, AsciiOnly) {
  EXPECT_EQ(ToLower("PuruPURU 123"), "purupuru 123");
}

TEST(StartsEndsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("gelatin-leaf", "gelatin"));
  EXPECT_FALSE(StartsWith("gel", "gelatin"));
  EXPECT_TRUE(EndsWith("gelatin-leaf", "-leaf"));
  EXPECT_FALSE(EndsWith("leaf", "gelatin-leaf"));
  EXPECT_TRUE(StartsWith("x", ""));
  EXPECT_TRUE(EndsWith("x", ""));
}

TEST(JoinTest, Basics) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(ParseDoubleTest, ValidInputs) {
  EXPECT_DOUBLE_EQ(ParseDouble("1.5").value(), 1.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-2e3").value(), -2000.0);
  EXPECT_DOUBLE_EQ(ParseDouble("  42 ").value(), 42.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5 2.5").ok());
}

TEST(ParseIntTest, ValidInputs) {
  EXPECT_EQ(ParseInt("123").value(), 123);
  EXPECT_EQ(ParseInt("-7").value(), -7);
  EXPECT_EQ(ParseInt(" 0 ").value(), 0);
}

TEST(ParseIntTest, RejectsGarbageAndFractions) {
  EXPECT_FALSE(ParseInt("12.5").ok());
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("12x").ok());
}

TEST(FormatDoubleTest, RespectsDigits) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(3.0, 0), "3");
  EXPECT_EQ(FormatDouble(-0.5, 3), "-0.500");
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.1f", 7, "x", 2.5), "7-x-2.5");
  EXPECT_EQ(StrFormat("no args"), "no args");
}

TEST(RoundTripTest, ParseFormattedDouble) {
  for (double v : {0.001, 1.5, 100.25, -3.125}) {
    EXPECT_DOUBLE_EQ(ParseDouble(FormatDouble(v, 6)).value(), v);
  }
}

}  // namespace
}  // namespace texrheo
