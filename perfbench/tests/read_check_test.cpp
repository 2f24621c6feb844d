#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kSeed = 7;
constexpr std::uint64_t kBlock = 4242;

std::vector<std::uint8_t> image(std::uint32_t version) {
  std::vector<std::uint8_t> out(kBlockBytes);
  fill_image(kSeed, kBlock, version, out);
  return out;
}

TEST(ReadCheck, ExactImageIsOk) {
  EXPECT_TRUE(image_matches(kSeed, kBlock, 3, image(3)));
  EXPECT_EQ(check_read(kSeed, kBlock, BlockState{3, false}, image(3)), Outcome::Ok);
}

TEST(ReadCheck, WrongBytesOrVersionIsCorrupt) {
  std::vector<std::uint8_t> data = image(3);
  data[17] ^= 0x01;
  EXPECT_EQ(check_read(kSeed, kBlock, BlockState{3, false}, data), Outcome::Corrupt);
  EXPECT_EQ(check_read(kSeed, kBlock, BlockState{2, false}, image(3)), Outcome::Corrupt);
  EXPECT_EQ(check_read(kSeed, kBlock + 1, BlockState{3, false}, image(3)), Outcome::Corrupt);
}

TEST(ReadCheck, PayloadOfAnotherSizeIsCorrupt) {
  const std::vector<std::uint8_t> full = image(3);
  const std::vector<std::uint8_t> empty;
  const std::vector<std::uint8_t> prefix(full.begin(), full.begin() + kBlockBytes / 2);
  std::vector<std::uint8_t> longer = full;
  longer.push_back(0);
  const std::array<const std::vector<std::uint8_t>*, 3> payloads = {&empty, &prefix, &longer};
  for (const auto* data : payloads) {
    EXPECT_FALSE(image_matches(kSeed, kBlock, 3, *data)) << data->size() << " bytes";
    EXPECT_EQ(check_read(kSeed, kBlock, BlockState{3, false}, *data), Outcome::Corrupt);
    // An unknown image excuses the content, never the size.
    EXPECT_EQ(check_read(kSeed, kBlock, BlockState{3, true}, *data), Outcome::Corrupt);
  }
}

TEST(ReadCheck, UnknownImageAcceptsAnyFullBlock) {
  std::vector<std::uint8_t> data = image(9);
  EXPECT_EQ(check_read(kSeed, kBlock, BlockState{3, true}, data), Outcome::Ok);
}

TEST(SampleLog, KeepsTimedEpochsOnly) {
  SampleLog log;
  log.reserve(8);
  log.add(0, SampleKind::Read, 5.0);  // warm-up: dropped
  log.add(1, SampleKind::Read, 10.0);
  log.add(1, SampleKind::Write, 20.0);
  log.add(2, SampleKind::Read, 30.0);
  EXPECT_EQ(log.count(0, SampleKind::Read), 0u);
  EXPECT_EQ(log.count(1, SampleKind::Read), 1u);
  EXPECT_FALSE(log.overflowed());
  std::array<bool, kEpochs> keep{};
  keep[2] = true;
  std::vector<float> out;
  log.collect(SampleKind::Read, keep, out);
  EXPECT_EQ(out, std::vector<float>{30.0F});
}

TEST(SampleLog, ReportsGrowthPastItsReservation) {
  SampleLog log;
  log.reserve(2);
  for (int i = 0; i < 3; ++i) log.add(1, SampleKind::Write, 1.0);
  EXPECT_TRUE(log.overflowed());
}

}  // namespace
}  // namespace perfbench
