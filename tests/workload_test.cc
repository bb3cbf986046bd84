// Tests for workload specifications, key materialization and generators.

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "workload/workload.h"

namespace dido {
namespace {

TEST(WorkloadSpecTest, CanonicalNames) {
  EXPECT_EQ(MakeWorkload(DatasetK8(), 100, KeyDistribution::kUniform).Name(),
            "K8-G100-U");
  EXPECT_EQ(MakeWorkload(DatasetK32(), 95, KeyDistribution::kZipf).Name(),
            "K32-G95-S");
  EXPECT_EQ(MakeWorkload(DatasetK128(), 50, KeyDistribution::kZipf).Name(),
            "K128-G50-S");
}

TEST(WorkloadSpecTest, ParseRoundTrip) {
  for (const WorkloadSpec& spec : StandardWorkloadMatrix()) {
    WorkloadSpec parsed;
    ASSERT_TRUE(ParseWorkloadName(spec.Name(), &parsed)) << spec.Name();
    EXPECT_EQ(parsed.Name(), spec.Name());
    EXPECT_EQ(parsed.dataset.key_size, spec.dataset.key_size);
    EXPECT_EQ(parsed.dataset.value_size, spec.dataset.value_size);
    EXPECT_DOUBLE_EQ(parsed.get_ratio, spec.get_ratio);
    EXPECT_EQ(parsed.distribution, spec.distribution);
  }
}

TEST(WorkloadSpecTest, ParseRejectsMalformed) {
  WorkloadSpec spec;
  EXPECT_FALSE(ParseWorkloadName("", &spec));
  EXPECT_FALSE(ParseWorkloadName("K9-G95-U", &spec));    // no K9 dataset
  EXPECT_FALSE(ParseWorkloadName("K8-G101-U", &spec));   // bad percent
  EXPECT_FALSE(ParseWorkloadName("K8-G95-X", &spec));    // bad distribution
  EXPECT_FALSE(ParseWorkloadName("garbage", &spec));
}

TEST(WorkloadSpecTest, StandardDatasetsMatchPaper) {
  const std::vector<DatasetSpec>& datasets = StandardDatasets();
  ASSERT_EQ(datasets.size(), 4u);
  EXPECT_EQ(datasets[0].key_size, 8u);
  EXPECT_EQ(datasets[0].value_size, 8u);
  EXPECT_EQ(datasets[1].key_size, 16u);
  EXPECT_EQ(datasets[1].value_size, 64u);
  EXPECT_EQ(datasets[2].key_size, 32u);
  EXPECT_EQ(datasets[2].value_size, 256u);
  EXPECT_EQ(datasets[3].key_size, 128u);
  EXPECT_EQ(datasets[3].value_size, 1024u);
}

TEST(WorkloadSpecTest, MatrixHas24UniquePoints) {
  const std::vector<WorkloadSpec> matrix = StandardWorkloadMatrix();
  EXPECT_EQ(matrix.size(), 24u);
  std::set<std::string> names;
  for (const WorkloadSpec& spec : matrix) names.insert(spec.Name());
  EXPECT_EQ(names.size(), 24u);
}

TEST(MaterializeTest, KeysAreUniqueAndDeterministic) {
  std::set<std::string> keys;
  for (uint64_t i = 0; i < 1000; ++i) {
    uint8_t a[16];
    uint8_t b[16];
    MaterializeKey(i, 16, a);
    MaterializeKey(i, 16, b);
    EXPECT_EQ(memcmp(a, b, 16), 0);
    keys.insert(std::string(reinterpret_cast<char*>(a), 16));
  }
  EXPECT_EQ(keys.size(), 1000u);
}

TEST(MaterializeTest, LongKeysDifferBeyondPrefix) {
  uint8_t a[128];
  uint8_t b[128];
  MaterializeKey(1, 128, a);
  MaterializeKey(2, 128, b);
  // Tails (bytes 8..) must differ too, so KC exercises full comparison.
  EXPECT_NE(memcmp(a + 8, b + 8, 120), 0);
}

TEST(MaterializeTest, ValueDependsOnVersion) {
  uint8_t v0[64];
  uint8_t v1[64];
  MaterializeValue(7, 64, 0, v0);
  MaterializeValue(7, 64, 1, v1);
  EXPECT_NE(memcmp(v0, v1, 64), 0);
}

TEST(GeneratorTest, DeterministicForSeed) {
  WorkloadSpec spec = MakeWorkload(DatasetK8(), 95, KeyDistribution::kZipf);
  WorkloadGenerator a(spec, 10000, 5);
  WorkloadGenerator b(spec, 10000, 5);
  for (int i = 0; i < 1000; ++i) {
    const Query qa = a.Next();
    const Query qb = b.Next();
    EXPECT_EQ(qa.op, qb.op);
    EXPECT_EQ(qa.key_index, qb.key_index);
  }
}

TEST(GeneratorTest, KeysWithinRange) {
  WorkloadSpec spec = MakeWorkload(DatasetK8(), 50, KeyDistribution::kZipf);
  WorkloadGenerator generator(spec, 777, 1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(generator.Next().key_index, 777u);
  }
}

class GeneratorRatioTest : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorRatioTest, GetRatioMatches) {
  const int pct = GetParam();
  WorkloadSpec spec =
      MakeWorkload(DatasetK16(), pct, KeyDistribution::kUniform);
  WorkloadGenerator generator(spec, 1000, 3);
  int gets = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (generator.Next().op == QueryOp::kGet) ++gets;
  }
  EXPECT_NEAR(static_cast<double>(gets) / n, pct / 100.0, 0.01);
}

INSTANTIATE_TEST_SUITE_P(Ratios, GeneratorRatioTest,
                         ::testing::Values(100, 95, 50, 0));

TEST(GeneratorTest, ZipfSkewsPopularity) {
  WorkloadSpec uniform = MakeWorkload(DatasetK8(), 100, KeyDistribution::kUniform);
  WorkloadSpec zipf = MakeWorkload(DatasetK8(), 100, KeyDistribution::kZipf);
  WorkloadGenerator ug(uniform, 10000, 1);
  WorkloadGenerator zg(zipf, 10000, 1);
  int u_top = 0;
  int z_top = 0;
  for (int i = 0; i < 50000; ++i) {
    if (ug.Next().key_index < 100) ++u_top;
    if (zg.Next().key_index < 100) ++z_top;
  }
  EXPECT_GT(z_top, 10 * u_top);  // top-100 keys dominate under Zipf(0.99)
  EXPECT_GT(zg.TopFraction(100), 10.0 * ug.TopFraction(100));
}

TEST(QueryOpTest, Names) {
  EXPECT_EQ(QueryOpName(QueryOp::kGet), "GET");
  EXPECT_EQ(QueryOpName(QueryOp::kSet), "SET");
  EXPECT_EQ(QueryOpName(QueryOp::kDelete), "DELETE");
}

}  // namespace
}  // namespace dido
