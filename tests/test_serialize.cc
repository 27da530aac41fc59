#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "test_util.h"
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

}  // namespace
}  // namespace tq
