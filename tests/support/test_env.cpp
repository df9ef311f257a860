#include "support/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace {

class EnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const char* name : {"REPRO_TEST_INT", "REPRO_TEST_DBL", "REPRO_SCALE",
                             "REPRO_MAX_THREADS", "REPRO_REPEATS",
                             "REPRO_FAULT_ITERS", "REPRO_FAULT_SEED"}) {
      unsetenv(name);
    }
  }
};

TEST_F(EnvTest, IntFallbackWhenUnset) {
  EXPECT_EQ(support::env_int("REPRO_TEST_INT", 7), 7);
}

TEST_F(EnvTest, IntParsesValue) {
  setenv("REPRO_TEST_INT", "123", 1);
  EXPECT_EQ(support::env_int("REPRO_TEST_INT", 7), 123);
  setenv("REPRO_TEST_INT", "-5", 1);
  EXPECT_EQ(support::env_int("REPRO_TEST_INT", 7), -5);
}

TEST_F(EnvTest, IntFallbackOnGarbage) {
  setenv("REPRO_TEST_INT", "12abc", 1);
  EXPECT_EQ(support::env_int("REPRO_TEST_INT", 7), 7);
  setenv("REPRO_TEST_INT", "", 1);
  EXPECT_EQ(support::env_int("REPRO_TEST_INT", 7), 7);
}

TEST_F(EnvTest, DoubleParsesAndFallsBack) {
  EXPECT_DOUBLE_EQ(support::env_double("REPRO_TEST_DBL", 1.5), 1.5);
  setenv("REPRO_TEST_DBL", "0.25", 1);
  EXPECT_DOUBLE_EQ(support::env_double("REPRO_TEST_DBL", 1.5), 0.25);
  setenv("REPRO_TEST_DBL", "abc", 1);
  EXPECT_DOUBLE_EQ(support::env_double("REPRO_TEST_DBL", 1.5), 1.5);
}

TEST_F(EnvTest, ScaleKnob) {
  EXPECT_DOUBLE_EQ(support::repro_scale(), 1.0);
  setenv("REPRO_SCALE", "0.5", 1);
  EXPECT_DOUBLE_EQ(support::repro_scale(), 0.5);
}

TEST_F(EnvTest, MaxThreadsKnob) {
  EXPECT_GE(support::repro_max_threads(), 4u);  // default floor
  setenv("REPRO_MAX_THREADS", "16", 1);
  EXPECT_EQ(support::repro_max_threads(), 16u);
}

TEST_F(EnvTest, RepeatsKnob) {
  EXPECT_EQ(support::repro_repeats(), 3);
  setenv("REPRO_REPEATS", "1", 1);
  EXPECT_EQ(support::repro_repeats(), 1);
}

TEST_F(EnvTest, FaultInjectionKnobs) {
  EXPECT_EQ(support::repro_fault_iters(), 30);
  setenv("REPRO_FAULT_ITERS", "200", 1);
  EXPECT_EQ(support::repro_fault_iters(), 200);

  EXPECT_EQ(support::repro_fault_seed(), 42ull);
  setenv("REPRO_FAULT_SEED", "7", 1);
  EXPECT_EQ(support::repro_fault_seed(), 7ull);
}

}  // namespace
