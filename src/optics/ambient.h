// Ambient light model.
//
// Section 7.2.1 (Fig. 16d): ambient light photodetects to a DC current
// plus shot noise. The DC term is rejected by the 455 kHz band-pass
// receiver; the residual effect is a small shot-noise floor increase. The
// three experimental conditions are Day (1000 lux), Night (200 lux) and
// Dark (20 lux).
#pragma once

#include <algorithm>
#include <cmath>

namespace rt::optics {

struct AmbientLight {
  double illuminance_lux = 200.0;  ///< paper default: office at night

  /// Shot-noise standard deviation scales with the square root of the
  /// total detected optical power (Poisson statistics).
  [[nodiscard]] double shot_noise_sigma(double coefficient = 1e-4) const {
    return coefficient * std::sqrt(std::max(0.0, illuminance_lux));
  }

  [[nodiscard]] static AmbientLight day() { return {1000.0}; }
  [[nodiscard]] static AmbientLight night() { return {200.0}; }
  [[nodiscard]] static AmbientLight dark() { return {20.0}; }
};

}  // namespace rt::optics
