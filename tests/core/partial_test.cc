#include "core/partial.h"

#include <gtest/gtest.h>

#include "gen/taxi_generator.h"

namespace blot {
namespace {

struct Fixture {
  Dataset sample;
  STRange universe;

  Fixture() {
    TaxiFleetConfig config;
    config.num_taxis = 20;
    config.samples_per_taxi = 500;
    sample = GenerateTaxiFleet(config);
    universe = config.Universe();
  }
};

TEST(DensestSpatialBoxTest, CoversRequestedFractionCompactly) {
  const Fixture f;
  const STRange box = DensestSpatialBox(f.sample, f.universe, 0.6);
  const std::size_t inside = f.sample.FilterByRange(box).size();
  const double fraction =
      static_cast<double>(inside) / static_cast<double>(f.sample.size());
  EXPECT_GE(fraction, 0.58);
  // Hotspot-clustered data: 60% of records in far less than 60% of area.
  const double area_fraction = (box.Width() * box.Height()) /
                               (f.universe.Width() * f.universe.Height());
  EXPECT_LT(area_fraction, 0.5);
  EXPECT_TRUE(f.universe.Contains(box));
}

}  // namespace
}  // namespace blot
