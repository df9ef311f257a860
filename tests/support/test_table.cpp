#include "support/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace {

TEST(Table, AlignedOutputContainsAllCells) {
  support::Table t({"name", "runtime_ms"});
  t.add_row({"taskflow", "12.5"});
  t.add_row({"tbb-flowgraph", "19.1"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("taskflow"), std::string::npos);
  EXPECT_NE(out.find("tbb-flowgraph"), std::string::npos);
  EXPECT_NE(out.find("19.1"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, CsvOutputIsMachineReadable) {
  support::Table t({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream os;
  t.print_csv(os, "fig7");
  const std::string out = os.str();
  EXPECT_NE(out.find("CSV,fig7,x,y"), std::string::npos);
  EXPECT_NE(out.find("CSV,fig7,1,2"), std::string::npos);
}

TEST(Table, CsvQuotesCellsHoldingCommasOrQuotes) {
  support::Table t({"tasks", "speedup"});
  t.add_row({support::fmt_count(16384), support::fmt(1.0)});
  t.add_row({"say \"hi\"", "2"});
  std::ostringstream os;
  t.print_csv(os, "t");
  const std::string out = os.str();
  EXPECT_NE(out.find("CSV,t,\"16,384\",1.00\n"), std::string::npos) << out;
  EXPECT_NE(out.find("CSV,t,\"say \"\"hi\"\"\",2\n"), std::string::npos) << out;
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(support::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(support::fmt(3.14159, 0), "3");
  EXPECT_EQ(support::fmt(-1.5, 1), "-1.5");
}

TEST(FmtCount, ThousandsSeparators) {
  EXPECT_EQ(support::fmt_count(0), "0");
  EXPECT_EQ(support::fmt_count(999), "999");
  EXPECT_EQ(support::fmt_count(1000), "1,000");
  EXPECT_EQ(support::fmt_count(1234567), "1,234,567");
  EXPECT_EQ(support::fmt_count(-12345), "-12,345");
}

TEST(Banner, ContainsTitle) {
  std::ostringstream os;
  support::banner(os, "Table I");
  EXPECT_NE(os.str().find("Table I"), std::string::npos);
}

}  // namespace
