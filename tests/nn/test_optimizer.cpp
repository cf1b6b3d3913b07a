#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace mlad::nn {
namespace {

/// Minimize f(p) = ||p - target||².
template <typename Opt>
double run_quadratic(Opt& opt, std::size_t iterations) {
  Matrix p(1, 3, 0.0f);
  Matrix g(1, 3, 0.0f);
  const float target[3] = {1.0f, -2.0f, 0.5f};
  const ParamSlot slots[] = {{&p, &g}};
  for (std::size_t it = 0; it < iterations; ++it) {
    for (std::size_t i = 0; i < 3; ++i) {
      g(0, i) = 2.0f * (p(0, i) - target[i]);
    }
    opt.step(slots);
  }
  double err = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    err += std::pow(p(0, i) - target[i], 2.0);
  }
  return err;
}

TEST(Optimizer, AdamConvergesOnQuadratic) {
  Adam adam(0.05);
  EXPECT_LT(run_quadratic(adam, 800), 1e-4);
}

TEST(Optimizer, AdamFirstStepIsLrSized) {
  // With bias correction, the first Adam update has magnitude ≈ lr.
  Adam adam(0.01);
  Matrix p(1, 1, 0.0f);
  Matrix g(1, 1, 123.0f);
  const ParamSlot slots[] = {{&p, &g}};
  adam.step(slots);
  EXPECT_NEAR(p(0, 0), -0.01f, 1e-4f);
}

TEST(Optimizer, ResetClearsState) {
  Adam adam(0.1);
  Matrix p(1, 1, 0.0f);
  Matrix g(1, 1, 1.0f);
  const ParamSlot slots[] = {{&p, &g}};
  adam.step(slots);
  const float after_one = p(0, 0);
  adam.reset();
  Matrix p2(1, 1, 0.0f);
  const ParamSlot slots2[] = {{&p2, &g}};
  adam.step(slots2);
  EXPECT_FLOAT_EQ(p2(0, 0), after_one);  // identical fresh first step
}

TEST(Optimizer, ClipScaleScalesDown) {
  Matrix g1(1, 2, 3.0f);
  Matrix g2(1, 2, 4.0f);
  Matrix p(1, 2, 0.0f);
  const ParamSlot slots[] = {{&p, &g1}, {&p, &g2}};
  // norm = sqrt(2*9 + 2*16) = sqrt(50)
  EXPECT_EQ(clip_scale(slots, 1.0), static_cast<float>(1.0 / std::sqrt(50.0)));
  EXPECT_EQ(clip_scale(50.0, 1.0), clip_scale(slots, 1.0));
}

TEST(Optimizer, ClipScaleIsOneUnderBound) {
  Matrix g(1, 2, 0.1f);
  Matrix p(1, 2, 0.0f);
  const ParamSlot slots[] = {{&p, &g}};
  EXPECT_EQ(clip_scale(slots, 10.0), 1.0f);
  EXPECT_EQ(clip_scale(0.0, 10.0), 1.0f);
}

TEST(Optimizer, GradScaleOnLoadEqualsScaledGradients) {
  // Adam's grad_scale is the clip's float multiply, moved onto the load.
  Matrix p1(1, 3, 0.5f), p2(1, 3, 0.5f);
  Matrix g(1, 3);
  g(0, 0) = 3.0f;
  g(0, 1) = -7.25f;
  g(0, 2) = 1e-3f;
  Matrix scaled = g;
  const float scale = 0.37f;
  scaled *= scale;
  Adam a(0.01), b(0.01);
  const ParamSlot sa[] = {{&p1, &g}};
  const ParamSlot sb[] = {{&p2, &scaled}};
  for (int step = 0; step < 3; ++step) {
    a.step(sa, scale);
    b.step(sb);
  }
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(p1(0, i), p2(0, i));
}

TEST(Optimizer, NonFiniteNormIsANamedError) {
  // A NaN gradient fails `norm > max_norm`; it used to reach Adam and the
  // weights. The clip now refuses it.
  Matrix p(1, 2, 0.0f);
  Matrix g(1, 2, 1.0f);
  const ParamSlot slots[] = {{&p, &g}};
  g(0, 1) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(clip_scale(slots, 5.0), NonFiniteGradientError);
  g(0, 1) = std::numeric_limits<float>::infinity();
  EXPECT_THROW(clip_scale(slots, 5.0), NonFiniteGradientError);
  g(0, 1) = 3e38f;  // finite, but its square overflows no double
  EXPECT_NO_THROW(clip_scale(slots, 5.0));
  EXPECT_THROW(finite_grad_norm(std::numeric_limits<double>::infinity()),
               NonFiniteGradientError);
}

}  // namespace
}  // namespace mlad::nn
