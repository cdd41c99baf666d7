#include "util/table_buffer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

namespace pcmax {
namespace {

TEST(TableBuffer, DefaultConstructedIsEmpty) {
  TableBuffer<std::int32_t> buffer;
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.data(), nullptr);
  EXPECT_EQ(buffer.alignment(), 0u);
}

TEST(TableBuffer, FillsAndIsCacheLineAligned) {
  TableBuffer<std::int32_t> buffer(1000, -7);
  ASSERT_EQ(buffer.size(), 1000u);
  EXPECT_EQ(buffer.alignment(), TableBuffer<std::int32_t>::kCacheLine);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buffer.data()) %
                TableBuffer<std::int32_t>::kCacheLine,
            0u);
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    ASSERT_EQ(buffer[i], -7) << i;
  }
  buffer[3] = 42;
  EXPECT_EQ(buffer[3], 42);
}

TEST(TableBuffer, CopyIsDeepAndKeepsAlignment) {
  TableBuffer<std::int32_t> original(256, 5);
  original[10] = 99;
  TableBuffer<std::int32_t> copy(original);
  ASSERT_EQ(copy.size(), original.size());
  EXPECT_EQ(copy.alignment(), original.alignment());
  EXPECT_NE(copy.data(), original.data());
  EXPECT_EQ(copy[10], 99);
  copy[10] = 1;
  EXPECT_EQ(original[10], 99);

  TableBuffer<std::int32_t> assigned;
  assigned = original;
  EXPECT_EQ(assigned.size(), 256u);
  EXPECT_EQ(assigned[10], 99);
}

TEST(TableBuffer, MoveTransfersOwnership) {
  TableBuffer<std::int32_t> original(128, 3);
  const std::int32_t* data = original.data();
  TableBuffer<std::int32_t> moved(std::move(original));
  EXPECT_EQ(moved.data(), data);
  EXPECT_EQ(moved.size(), 128u);
  EXPECT_TRUE(original.empty());  // NOLINT(bugprone-use-after-move)

  TableBuffer<std::int32_t> assigned(16, 0);
  assigned = std::move(moved);
  EXPECT_EQ(assigned.data(), data);
  EXPECT_EQ(assigned.size(), 128u);
}

TEST(TableBuffer, ZeroSizeAllocatesNothing) {
  TableBuffer<std::int32_t> buffer(0, 7);
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.data(), nullptr);
}

}  // namespace
}  // namespace pcmax
