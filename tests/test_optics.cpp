// Tests for the polarization algebra, link budget and ambient models.
#include <gtest/gtest.h>

#include "common/units.h"
#include "optics/ambient.h"
#include "optics/link_budget.h"
#include "optics/polarization.h"

namespace rt::optics {
namespace {

TEST(Polarization, MalusLawKnownAngles) {
  const LightState in{1.0, 0.0, 1.0};
  EXPECT_NEAR(malus_intensity(in, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(malus_intensity(in, deg_to_rad(90.0)), 0.0, 1e-12);
  EXPECT_NEAR(malus_intensity(in, deg_to_rad(45.0)), 0.5, 1e-12);
  EXPECT_NEAR(malus_intensity(in, deg_to_rad(60.0)), 0.25, 1e-12);
}

TEST(Polarization, UnpolarizedPassesHalf) {
  const LightState ambient{2.0, 0.0, 0.0};
  for (double a = 0.0; a < kPi; a += 0.3)
    EXPECT_NEAR(malus_intensity(ambient, a), 1.0, 1e-12);
}

TEST(Polarization, PolarizeSetsAngleAndFraction) {
  const LightState in{1.0, deg_to_rad(30.0), 1.0};
  const auto out = polarize(in, deg_to_rad(75.0));
  EXPECT_NEAR(out.intensity, 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(out.angle_rad, deg_to_rad(75.0));
  EXPECT_DOUBLE_EQ(out.polarized_fraction, 1.0);
}

TEST(Polarization, ChannelCoefficientMatchesPaperFormula) {
  // h_tr = cos 2(theta_t - theta_r): +1 aligned, -1 crossed, 0 at 45deg.
  EXPECT_NEAR(channel_coefficient(0.0, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(channel_coefficient(deg_to_rad(90.0), 0.0), -1.0, 1e-12);
  EXPECT_NEAR(channel_coefficient(deg_to_rad(45.0), 0.0), 0.0, 1e-12);
}

TEST(Polarization, FortyFiveDegreePairsAreOrthogonal) {
  // Section 4.2.1: transmitters (receivers) 45deg apart form an orthogonal
  // basis; the property holds for any absolute orientation.
  for (double base = 0.0; base < kPi; base += 0.111) {
    EXPECT_NEAR(basis_inner_product(base, base + deg_to_rad(45.0)), 0.0, 1e-12) << base;
    EXPECT_NEAR(basis_inner_product(base, base), 1.0, 1e-12);
  }
}

TEST(Polarization, PdrResponseAxes) {
  // I group (0deg) -> +1; its relaxed state (90deg) -> -1.
  EXPECT_NEAR(std::abs(pdr_response(0.0) - Complex(1, 0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(pdr_response(deg_to_rad(90.0)) - Complex(-1, 0)), 0.0, 1e-12);
  // Q group (45deg) -> +j; relaxed (135deg) -> -j.
  EXPECT_NEAR(std::abs(pdr_response(deg_to_rad(45.0)) - Complex(0, 1)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(pdr_response(deg_to_rad(135.0)) - Complex(0, -1)), 0.0, 1e-12);
}

TEST(Polarization, RollRotatesConstellationByTwiceTheAngle) {
  // A physical roll of dtheta multiplies the constellation by e^{j 2 dtheta}
  // (section 4.2.2) -- the PQAM rotation-tolerance property.
  const double roll = deg_to_rad(20.0);
  const auto rotated = pdr_response(0.0 + roll);
  EXPECT_NEAR(std::arg(rotated), 2.0 * roll, 1e-12);
  EXPECT_NEAR(std::abs(roll_rotation(roll) - rotated), 0.0, 1e-12);
}

TEST(LinkBudget, FitPassesThroughAnchors) {
  const auto lb = LinkBudget::narrow_beam();
  EXPECT_NEAR(lb.snr_db_at(7.5), 28.0, 1e-9);
  EXPECT_NEAR(lb.snr_db_at(10.5), 20.0, 1e-9);
  const auto wb = LinkBudget::wide_beam();
  EXPECT_NEAR(wb.snr_db_at(1.0), 65.0, 1e-9);
  EXPECT_NEAR(wb.snr_db_at(4.3), 14.0, 1e-9);
}

TEST(LinkBudget, MonotonicallyDecreasing) {
  const auto lb = LinkBudget::narrow_beam();
  double prev = 1e9;
  for (double d = 0.5; d < 15.0; d += 0.25) {
    const double snr = lb.snr_db_at(d);
    EXPECT_LT(snr, prev);
    prev = snr;
  }
}

TEST(LinkBudget, InverseMappingRoundTrips) {
  const auto lb = LinkBudget::wide_beam();
  for (double d = 1.0; d <= 4.3; d += 0.37)
    EXPECT_NEAR(lb.distance_at_snr_db(lb.snr_db_at(d)), d, 1e-9);
}

TEST(LinkBudget, YawLossGrowsFromZero) {
  EXPECT_NEAR(LinkBudget::yaw_loss_db(0.0), 0.0, 1e-12);
  EXPECT_GT(LinkBudget::yaw_loss_db(deg_to_rad(40.0)), 2.0);
  EXPECT_GT(LinkBudget::yaw_loss_db(deg_to_rad(55.0)),
            LinkBudget::yaw_loss_db(deg_to_rad(40.0)));
  EXPECT_THROW((void)LinkBudget::yaw_loss_db(deg_to_rad(90.0)), PreconditionError);
}

TEST(LinkBudget, Validation) {
  EXPECT_THROW(LinkBudget(0.0, 10.0, 40.0), PreconditionError);
  EXPECT_THROW(static_cast<void>(LinkBudget::fit(2.0, 10.0, 2.0, 20.0)), PreconditionError);
  const auto lb = LinkBudget::narrow_beam();
  EXPECT_THROW((void)lb.snr_db_at(-1.0), PreconditionError);
}

TEST(Ambient, PresetsAndScaling) {
  EXPECT_DOUBLE_EQ(AmbientLight::day().illuminance_lux, 1000.0);
  EXPECT_DOUBLE_EQ(AmbientLight::night().illuminance_lux, 200.0);
  EXPECT_DOUBLE_EQ(AmbientLight::dark().illuminance_lux, 20.0);
  // Shot noise grows like sqrt(lux).
  const double ratio =
      AmbientLight::day().shot_noise_sigma() / AmbientLight::dark().shot_noise_sigma();
  EXPECT_NEAR(ratio, std::sqrt(1000.0 / 20.0), 1e-9);
}

}  // namespace
}  // namespace rt::optics
