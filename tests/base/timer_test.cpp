// Tests for the wall-clock stopwatch.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "base/timer.hpp"

namespace nk {
namespace {

void spin_for_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

TEST(WallTimer, ElapsedIsNonNegativeAndMonotone) {
  WallTimer t;
  const double a = t.seconds();
  EXPECT_GE(a, 0.0);
  spin_for_ms(2);
  const double b = t.seconds();
  EXPECT_GE(b, a);
}

TEST(WallTimer, MeasuresSleepsAtLeastApproximately) {
  WallTimer t;
  spin_for_ms(10);
  EXPECT_GE(t.seconds(), 0.009);  // steady_clock never under-reports a sleep
}

TEST(WallTimer, MillisMatchesSeconds) {
  WallTimer t;
  spin_for_ms(2);
  const double s = t.seconds();
  const double ms = t.millis();
  // Two separate now() calls: ms was read after s, so it can only be
  // larger; a generous upper margin keeps loaded CI runners flake-free.
  EXPECT_GE(ms, s * 1e3);
  EXPECT_NEAR(ms, s * 1e3, 100.0);
}

TEST(WallTimer, ResetRestartsFromZero) {
  WallTimer t;
  spin_for_ms(20);
  const double before = t.seconds();
  t.reset();
  // Post-reset elapsed is microseconds; it beats the 20 ms pre-reset
  // reading unless the scheduler stalls us longer than `before` itself.
  EXPECT_LT(t.seconds(), before);
}

}  // namespace
}  // namespace nk
