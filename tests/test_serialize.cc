#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "query/eval_service.h"
#include "test_util.h"
#include "tqtree/serialize.h"
#include "traj/io.h"

namespace tq {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(TrajectoryBinary, RoundTripExact) {
  Rng rng(1201);
  const Rect w = Rect::Of(0, 0, 10000, 10000);
  const TrajectorySet set = testing::RandomUsers(&rng, 150, 2, 9, w);
  const std::string path = TempPath("tq_traj_roundtrip.bin");
  ASSERT_TRUE(SaveTrajectoryBinary(path, set).ok());
  TrajectorySet loaded;
  ASSERT_TRUE(LoadTrajectoryBinary(path, &loaded).ok());
  ASSERT_EQ(loaded.size(), set.size());
  for (uint32_t i = 0; i < set.size(); ++i) {
    ASSERT_EQ(loaded.NumPoints(i), set.NumPoints(i));
    for (size_t j = 0; j < set.NumPoints(i); ++j) {
      EXPECT_EQ(loaded.points(i)[j], set.points(i)[j]);  // bit-exact
    }
  }
  std::remove(path.c_str());
}

TEST(TrajectoryBinary, RejectsGarbageFiles) {
  const std::string path = TempPath("tq_traj_garbage.bin");
  {
    std::ofstream os(path, std::ios::binary);
    os << "this is not a trajectory file at all";
  }
  TrajectorySet out;
  const Status st = LoadTrajectoryBinary(path, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(TrajectoryBinary, MissingFileIsIOError) {
  TrajectorySet out;
  EXPECT_EQ(LoadTrajectoryBinary("/no/such/file.bin", &out).code(),
            StatusCode::kIOError);
}

class TQTreeSerializeTest : public ::testing::TestWithParam<int> {};

TEST_P(TQTreeSerializeTest, RoundTripPreservesEverything) {
  const int config = GetParam();
  Rng rng(1203 + static_cast<uint64_t>(config));
  const Rect w = Rect::Of(0, 0, 20000, 20000);
  const TrajectorySet users =
      testing::RandomUsers(&rng, 400, 2, config >= 2 ? 7 : 2, w);
  const TrajectorySet facs = testing::RandomFacilities(&rng, 8, 10, w);
  TQTreeOptions opt;
  opt.beta = 16;
  opt.variant = (config % 2 == 0) ? IndexVariant::kZOrder
                                  : IndexVariant::kBasic;
  opt.mode = (config >= 2) ? TrajMode::kSegmented : TrajMode::kWhole;
  opt.model = (config >= 2) ? ServiceModel::PointCount(200.0)
                            : ServiceModel::Endpoints(200.0);
  TQTree original(&users, opt);
  const ServiceEvaluator eval(&users, opt.model);

  const std::string path =
      TempPath("tq_tree_roundtrip_" + std::to_string(config) + ".tqt");
  ASSERT_TRUE(SaveTQTree(path, original).ok());
  auto loaded = LoadTQTree(path, &users);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  TQTree& restored = **loaded;

  // Structure identical.
  const TQTreeStats a = original.ComputeStats();
  const TQTreeStats b = restored.ComputeStats();
  EXPECT_EQ(a.num_nodes, b.num_nodes);
  EXPECT_EQ(a.num_entries, b.num_entries);
  EXPECT_EQ(a.max_depth, b.max_depth);
  EXPECT_EQ(original.num_units(), restored.num_units());
  EXPECT_NEAR(original.RootUpperBound(), restored.RootUpperBound(), 1e-9);
  EXPECT_EQ(original.prune_mode(), restored.prune_mode());

  // Answers identical.
  for (uint32_t f = 0; f < facs.size(); ++f) {
    const StopGrid grid(facs.points(f), opt.model.psi);
    EXPECT_EQ(EvaluateServiceTQ(&original, eval, grid),
              EvaluateServiceTQ(&restored, eval, grid))
        << "config " << config << " facility " << f;
  }

  // The restored tree keeps supporting updates.
  restored.Remove(0);
  restored.Insert(0);
  EXPECT_EQ(restored.num_units(), original.num_units());
  std::remove(path.c_str());
}

// 0=whole_z, 1=whole_basic, 2=seg_z, 3=seg_basic.
INSTANTIATE_TEST_SUITE_P(Configs, TQTreeSerializeTest,
                         ::testing::Range(0, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "config" + std::to_string(info.param);
                         });

TEST(TQTreeSerialize, RejectsWrongUserSet) {
  Rng rng(1205);
  const Rect w = Rect::Of(0, 0, 10000, 10000);
  const TrajectorySet users = testing::RandomUsers(&rng, 100, 2, 2, w);
  const TrajectorySet other = testing::RandomUsers(&rng, 50, 2, 2, w);
  TQTreeOptions opt;
  opt.model = ServiceModel::Endpoints(100);
  TQTree tree(&users, opt);
  const std::string path = TempPath("tq_tree_wrong_users.tqt");
  ASSERT_TRUE(SaveTQTree(path, tree).ok());
  auto loaded = LoadTQTree(path, &other);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(TQTreeSerialize, RejectsTruncatedFile) {
  Rng rng(1207);
  const Rect w = Rect::Of(0, 0, 10000, 10000);
  const TrajectorySet users = testing::RandomUsers(&rng, 100, 2, 2, w);
  TQTreeOptions opt;
  opt.model = ServiceModel::Endpoints(100);
  TQTree tree(&users, opt);
  const std::string path = TempPath("tq_tree_trunc.tqt");
  ASSERT_TRUE(SaveTQTree(path, tree).ok());
  // Truncate to half.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  auto loaded = LoadTQTree(path, &users);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(TQTreeSerialize, RejectsNonTreeFile) {
  const std::string path = TempPath("tq_tree_not_a_tree.tqt");
  {
    std::ofstream os(path, std::ios::binary);
    os << "junk junk junk junk junk junk";
  }
  TrajectorySet users;
  const Point t[] = {{0, 0}, {1, 1}};
  users.Add(t);
  auto loaded = LoadTQTree(path, &users);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tq
