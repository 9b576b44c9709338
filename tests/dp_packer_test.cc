/**
 * @file
 * Round-packing DP tests (Algorithm 1): correctness against the
 * exhaustive reference on randomized instances (property sweep),
 * capacity invariants, group constraint, tie-break behaviour.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "packers/dp_packer.h"
#include "util/rng.h"

namespace tetri::packers {
namespace {

PackGroup
MakeGroup(RequestId id, bool survives_idle,
          std::vector<std::tuple<int, int, bool, double>> options)
{
  PackGroup group;
  group.id = id;
  group.survives_if_idle = survives_idle;
  for (auto [degree, steps, survives, work] : options) {
    PackOption opt;
    opt.degree = degree;
    opt.steps = steps;
    opt.survives = survives;
    opt.work = work;
    group.options.push_back(opt);
  }
  return group;
}

TEST(PackRoundTest, EmptyInput)
{
  auto result = PackRound({}, 8);
  EXPECT_EQ(result.survivors, 0);
  EXPECT_EQ(result.gpus_used, 0);
  EXPECT_TRUE(result.choice.empty());
}

TEST(PackRoundTest, SingleUrgentRequestRuns)
{
  auto result = PackRound(
      {MakeGroup(0, false, {{2, 3, true, 1.0}})}, 8);
  EXPECT_EQ(result.survivors, 1);
  EXPECT_EQ(result.choice[0], 0);
  EXPECT_EQ(result.gpus_used, 2);
}

TEST(PackRoundTest, CapacityForcesSacrifice)
{
  // Two urgent requests each needing the whole node: only one can
  // survive this round.
  std::vector<PackGroup> groups = {
      MakeGroup(0, false, {{8, 5, true, 1.0}}),
      MakeGroup(1, false, {{8, 5, true, 1.0}}),
  };
  auto result = PackRound(groups, 8);
  EXPECT_EQ(result.survivors, 1);
  EXPECT_EQ(result.gpus_used, 8);
}

TEST(PackRoundTest, NoneIsChosenWhenNothingFits)
{
  auto result = PackRound(
      {MakeGroup(0, true, {{8, 5, true, 1.0}})}, 4);
  EXPECT_EQ(result.choice[0], -1);
  EXPECT_EQ(result.survivors, 1);  // survives idle
}

TEST(PackRoundTest, PrefersHigherWorkOnSurvivorTie)
{
  // Both options survive; work tie-break picks the steeper one.
  auto result = PackRound(
      {MakeGroup(0, true, {{4, 3, true, 1.0}, {8, 5, true, 2.0}})}, 8);
  EXPECT_EQ(result.choice[0], 1);
}

TEST(PackRoundTest, PrefersFewerGpusOnFullTie)
{
  auto result = PackRound(
      {MakeGroup(0, true, {{4, 3, true, 1.0}, {8, 3, true, 1.0}})}, 8);
  EXPECT_EQ(result.choice[0], 0);
}

TEST(PackRoundTest, UrgentBeatsRelaxedUnderContention)
{
  // Request 0 dies if idle; request 1 is safe. Capacity fits one.
  std::vector<PackGroup> groups = {
      MakeGroup(0, false, {{8, 5, true, 1.0}}),
      MakeGroup(1, true, {{8, 5, true, 0.2}}),
  };
  auto result = PackRound(groups, 8);
  EXPECT_EQ(result.choice[0], 0);
  EXPECT_EQ(result.choice[1], -1);
  EXPECT_EQ(result.survivors, 2);
}

TEST(PackRoundTest, TieGoesToEarlierGroups)
{
  // Four equal groups, two GPUs: the first two keep them, in both data
  // paths, also when a later group's work is larger by noise only.
  const double w = 0.9;
  std::vector<PackGroup> groups = {
      MakeGroup(0, true, {{1, 1, true, w}}),
      MakeGroup(1, true, {{1, 1, true, w}}),
      MakeGroup(2, true, {{1, 1, true, w}}),
      MakeGroup(3, true, {{1, 1, true, std::nextafter(w, 1.0)}}),
  };
  const std::vector<int> expected = {0, 0, -1, -1};
  EXPECT_EQ(PackRound(groups, 2).choice, expected);
  EXPECT_EQ(PackRoundReference(groups, 2).choice, expected);
}

TEST(PackComparatorTest, RelativeEpsilonTiesWork)
{
  EXPECT_TRUE(WorkNearlyEqual(1.0, 1.0 + 1e-12));
  EXPECT_TRUE(WorkNearlyEqual(1e6, 1e6 + 1e-4));
  EXPECT_TRUE(WorkNearlyEqual(0.0, 5e-10));
  EXPECT_FALSE(WorkNearlyEqual(1.0, 1.0 + 1e-6));
  EXPECT_FALSE(WorkNearlyEqual(1e6, 1e6 + 1e-2));
}

TEST(PackComparatorTest, NearTieFallsThroughToWidth)
{
  // Accumulation-noise work difference must not decide; width does.
  const double w = 0.9;
  const double w_noisy = std::nextafter(w, 1.0);
  EXPECT_TRUE(PackValueBetter(1, w, 1, 1, w_noisy, 2));
  EXPECT_FALSE(PackValueBetter(1, w_noisy, 2, 1, w, 1));
  // A genuinely larger work still wins regardless of width.
  EXPECT_TRUE(PackValueBetter(1, w + 1e-3, 8, 1, w, 1));
  // Survivors dominate everything.
  EXPECT_TRUE(PackValueBetter(2, 0.0, 8, 1, 100.0, 1));
}

TEST(PackRoundTest, NearTieWorkPrefersFewerGpus)
{
  // Two options whose works differ by one ulp: under exact comparison
  // the wide option's infinitesimally larger work would win; under the
  // shared epsilon comparator the tie falls through to GPU economy.
  const double w = 0.9;
  auto result = PackRound(
      {MakeGroup(0, true,
                 {{4, 3, true, std::nextafter(w, 1.0)}, {2, 3, true, w}})},
      8);
  EXPECT_EQ(result.choice[0], 1);
  EXPECT_EQ(result.gpus_used, 2);
}

TEST(PackRoundTest, ZeroCapacityRunsNothing)
{
  auto result = PackRound(
      {MakeGroup(0, false, {{1, 1, true, 1.0}})}, 0);
  EXPECT_EQ(result.choice[0], -1);
  EXPECT_EQ(result.survivors, 0);
}

/** Property sweep: DP equals exhaustive search on random instances. */
class PackerEquivalenceSweep : public ::testing::TestWithParam<int> {
};

TEST_P(PackerEquivalenceSweep, MatchesExhaustive)
{
  Rng rng(GetParam());
  const int num_groups = 1 + static_cast<int>(rng.NextBelow(6));
  const int capacity = 1 + static_cast<int>(rng.NextBelow(8));
  std::vector<PackGroup> groups;
  for (int g = 0; g < num_groups; ++g) {
    PackGroup group;
    group.id = g;
    group.survives_if_idle = rng.NextDouble() < 0.5;
    const int num_options = 1 + static_cast<int>(rng.NextBelow(3));
    for (int o = 0; o < num_options; ++o) {
      PackOption opt;
      opt.degree = 1 << rng.NextBelow(4);
      opt.steps = 1 + static_cast<int>(rng.NextBelow(10));
      opt.survives = rng.NextDouble() < 0.7;
      opt.work = rng.NextDouble();
      group.options.push_back(opt);
    }
    groups.push_back(std::move(group));
  }

  auto dp = PackRound(groups, capacity);
  auto exhaustive = PackRoundExhaustive(groups, capacity);

  // Same primary objective value; same tie-break value.
  EXPECT_EQ(dp.survivors, exhaustive.survivors);
  EXPECT_NEAR(dp.work, exhaustive.work, 1e-9);
  EXPECT_LE(dp.gpus_used, capacity);

  // The flat-arena DP must be bit-identical to the seed nested-vector
  // implementation — same choices, same accumulated values.
  auto ref = PackRoundReference(groups, capacity);
  EXPECT_EQ(dp.choice, ref.choice);
  EXPECT_EQ(dp.survivors, ref.survivors);
  EXPECT_EQ(dp.gpus_used, ref.gpus_used);
  EXPECT_EQ(dp.running, ref.running);
  EXPECT_EQ(dp.work, ref.work);  // bit-for-bit, not NEAR

  // Choice vector internally consistent.
  int used = 0, survivors = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const int choice = dp.choice[g];
    if (choice < 0) {
      survivors += groups[g].survives_if_idle ? 1 : 0;
      continue;
    }
    ASSERT_LT(choice, static_cast<int>(groups[g].options.size()));
    used += groups[g].options[choice].degree;
    survivors += groups[g].options[choice].survives ? 1 : 0;
  }
  EXPECT_EQ(used, dp.gpus_used);
  EXPECT_EQ(survivors, dp.survivors);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, PackerEquivalenceSweep,
                         ::testing::Range(1, 120));

/** Near-tie property sweep: works drawn from a tiny discrete set so
 * many packings tie within epsilon; every implementation must agree on
 * the objective and respect the width tie-break. */
class PackerNearTieSweep : public ::testing::TestWithParam<int> {
};

TEST_P(PackerNearTieSweep, ImplementationsAgreeOnTies)
{
  Rng rng(1000 + GetParam());
  const int num_groups = 2 + static_cast<int>(rng.NextBelow(4));
  const int capacity = 2 + static_cast<int>(rng.NextBelow(7));
  // Works are multiples of 0.1 assembled via repeated addition, the
  // classic source of 1-ulp accumulation noise.
  auto noisy = [&](int tenths) {
    double w = 0.0;
    for (int i = 0; i < tenths; ++i) w += 0.1;
    return w;
  };
  std::vector<PackGroup> groups;
  for (int g = 0; g < num_groups; ++g) {
    PackGroup group;
    group.id = g;
    group.survives_if_idle = rng.NextDouble() < 0.5;
    const int num_options = 1 + static_cast<int>(rng.NextBelow(3));
    for (int o = 0; o < num_options; ++o) {
      PackOption opt;
      opt.degree = 1 << rng.NextBelow(3);
      opt.steps = 1 + static_cast<int>(rng.NextBelow(5));
      opt.survives = rng.NextDouble() < 0.7;
      opt.work = noisy(1 + static_cast<int>(rng.NextBelow(4)));
      group.options.push_back(opt);
    }
    groups.push_back(std::move(group));
  }

  auto dp = PackRound(groups, capacity);
  auto ref = PackRoundReference(groups, capacity);
  auto exhaustive = PackRoundExhaustive(groups, capacity);

  EXPECT_EQ(dp.choice, ref.choice);
  EXPECT_EQ(dp.work, ref.work);
  EXPECT_EQ(dp.survivors, exhaustive.survivors);
  EXPECT_TRUE(WorkNearlyEqual(dp.work, exhaustive.work))
      << dp.work << " vs " << exhaustive.work;
  // On an epsilon tie of (survivors, work), the DP must not consume
  // more GPUs than the exhaustive optimum.
  if (dp.survivors == exhaustive.survivors &&
      WorkNearlyEqual(dp.work, exhaustive.work)) {
    EXPECT_LE(dp.gpus_used, exhaustive.gpus_used);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, PackerNearTieSweep,
                         ::testing::Range(1, 80));

}  // namespace
}  // namespace tetri::packers
