// Standalone verification of the metamorphic relations the differential
// harness relies on — implemented here from scratch so a bug in the
// harness's own relation code cannot certify itself.
#include <gtest/gtest.h>

#include <cmath>

#include "blot/replica.h"
#include "core/cost_model.h"
#include "testing/generator.h"
#include "testing/oracle.h"
#include "util/rng.h"

namespace blot::testing {
namespace {

struct MetamorphicTest : ::testing::Test {
  STRange universe = DefaultTestUniverse();
  Rng rng{20140714};
  Dataset dataset = [this] {
    DatasetProfile profile;
    profile.min_records = 120;
    profile.max_records = 300;
    return GenerateDataset(rng, universe, profile);
  }();

  Replica Build(const char* encoding, std::size_t spatial,
                std::size_t temporal) {
    return Replica::Build(dataset,
                          {{.spatial_partitions = spatial,
                            .temporal_partitions = temporal},
                           EncodingScheme::FromName(encoding)},
                          universe);
  }
};

TEST_F(MetamorphicTest, SplitUnionEqualsWholeOnEveryAxis) {
  const Replica replica = Build("ROW-GZIP", 8, 4);
  for (int trial = 0; trial < 10; ++trial) {
    const STRange whole =
        GenerateQuery(rng, QueryShape::kRandom, universe, dataset);
    const std::vector<Record> expected =
        Canonical(replica.Execute(whole).records);

    // Split along x: [lo, mid] u [nextafter(mid), hi] partitions the
    // closed range exactly — no record can land in both halves.
    const double mid = whole.x_min() + (whole.x_max() - whole.x_min()) / 2;
    const STRange left =
        STRange::FromBounds(whole.x_min(), mid, whole.y_min(),
                            whole.y_max(), whole.t_min(), whole.t_max());
    const STRange right = STRange::FromBounds(
        std::nextafter(mid, whole.x_max() + 1), whole.x_max(),
        whole.y_min(), whole.y_max(), whole.t_min(), whole.t_max());

    std::vector<Record> merged = replica.Execute(left).records;
    const std::vector<Record> rhs = replica.Execute(right).records;
    merged.insert(merged.end(), rhs.begin(), rhs.end());
    EXPECT_EQ(Canonical(merged), expected) << "trial " << trial;
  }
}

TEST_F(MetamorphicTest, AllReplicaPairsAgreeWithoutAnOracle) {
  const Replica replicas[] = {Build("ROW-PLAIN", 1, 1),
                              Build("COL-SNAPPY", 4, 4),
                              Build("ROW-LZMA", 16, 2)};
  for (const STRange& query :
       GenerateQueries(rng, 10, universe, dataset)) {
    const std::vector<Record> first =
        Canonical(replicas[0].Execute(query).records);
    for (std::size_t r = 1; r < 3; ++r)
      EXPECT_EQ(Canonical(replicas[r].Execute(query).records), first)
          << "replica " << r << " query " << query.ToString();
  }
}

TEST_F(MetamorphicTest, QueryCostIsFiniteNonNegativeAndMonotone) {
  const CostModel model{EnvironmentModel::AmazonS3Emr()};
  const Replica replica = Build("COL-GZIP", 8, 8);
  const ReplicaSketch& sketch = replica.sketch();
  for (int trial = 0; trial < 20; ++trial) {
    const STRange query =
        GenerateQuery(rng, QueryShape::kRandom, universe, dataset);
    const double cost = model.QueryCostMs(sketch, query);
    ASSERT_TRUE(std::isfinite(cost));
    ASSERT_GE(cost, 0.0);
    const STRange grown = query.Expanded(rng.NextDouble(0.0, 8.0),
                                         rng.NextDouble(0.0, 8.0),
                                         rng.NextDouble(0.0, 128.0));
    EXPECT_GE(model.QueryCostMs(sketch, grown), cost - 1e-9)
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace blot::testing
