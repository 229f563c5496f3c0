// Direct unit tests for ib/keys.h: IBA P_Key membership semantics in the
// PartitionTable and bounds/permission checking in the MemoryRegionTable
// (both are otherwise only exercised indirectly through the CA).
#include <gtest/gtest.h>

#include "ib/keys.h"

namespace ibsec::ib {
namespace {

TEST(PartitionTableUnit, EmptyMatchesNothing) {
  PartitionTable table;
  EXPECT_FALSE(table.contains(kDefaultPKey));
  EXPECT_EQ(table.size(), 0u);
}

TEST(PartitionTableUnit, FullMemberMatchesBothForms) {
  PartitionTable table;
  table.add(0x8123);  // full member
  EXPECT_TRUE(table.contains(0x8123));  // full vs full
  EXPECT_TRUE(table.contains(0x0123));  // full vs limited
  EXPECT_FALSE(table.contains(0x8124)); // different index
}

TEST(PartitionTableUnit, LimitedMemberOnlyMatchesFull) {
  PartitionTable table;
  table.add(0x0123);  // limited member
  EXPECT_TRUE(table.contains(0x8123));   // limited-in-table vs full-in-packet
  // Two limited members must NOT communicate (IBA 10.9.3).
  EXPECT_FALSE(table.contains(0x0123));
}

TEST(PartitionTableUnit, ClearEmptiesTable) {
  PartitionTable table;
  table.add(0x8001);
  table.add(0x8002);
  EXPECT_EQ(table.size(), 2u);
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.contains(0x8001));
}

TEST(PartitionTableUnit, EntriesPreserveInsertionOrder) {
  PartitionTable table;
  table.add(0x8005);
  table.add(0x8001);
  ASSERT_EQ(table.entries().size(), 2u);
  EXPECT_EQ(table.entries()[0], 0x8005);
  EXPECT_EQ(table.entries()[1], 0x8001);
}

TEST(MemoryRegionTableUnit, RegisterAndExactBounds) {
  MemoryRegionTable table;
  MemoryRegion region;
  region.va_base = 0x1000;
  region.length = 0x100;
  region.rkey = 0xAA;
  region.remote_write = true;
  ASSERT_TRUE(table.register_region(region));
  EXPECT_EQ(table.size(), 1u);

  // Full-region access at both ends.
  EXPECT_TRUE(table.check_access(0xAA, 0x1000, 0x100).has_value());
  EXPECT_TRUE(table.check_access(0xAA, 0x10FF, 1).has_value());
  // One byte past the end fails.
  EXPECT_FALSE(table.check_access(0xAA, 0x1000, 0x101).has_value());
  EXPECT_FALSE(table.check_access(0xAA, 0x1100, 1).has_value());
  // One byte before the base fails.
  EXPECT_FALSE(table.check_access(0xAA, 0x0FFF, 1).has_value());
}

TEST(MemoryRegionTableUnit, PermissionBitsIndependent) {
  MemoryRegionTable table;
  MemoryRegion wr_only;
  wr_only.va_base = 0;
  wr_only.length = 64;
  wr_only.rkey = 1;
  wr_only.remote_write = true;
  MemoryRegion no_write;
  no_write.va_base = 0;
  no_write.length = 64;
  no_write.rkey = 2;
  table.register_region(wr_only);
  table.register_region(no_write);

  // Each region's remote_write bit alone decides, whatever the other's.
  EXPECT_TRUE(table.check_access(1, 0, 8).has_value());
  EXPECT_FALSE(table.check_access(2, 0, 8).has_value());
}

TEST(MemoryRegionTableUnit, UnknownRkeyFails) {
  MemoryRegionTable table;
  EXPECT_FALSE(table.check_access(0xDEAD, 0, 1).has_value());
}

TEST(MemoryRegionTableUnit, DuplicateRkeyRejected) {
  MemoryRegionTable table;
  MemoryRegion region;
  region.rkey = 7;
  region.length = 8;
  EXPECT_TRUE(table.register_region(region));
  EXPECT_FALSE(table.register_region(region));
  EXPECT_EQ(table.size(), 1u);
}

TEST(MemoryRegionTableUnit, ZeroLengthAccessInsideRegionOk) {
  MemoryRegionTable table;
  MemoryRegion region;
  region.va_base = 0x100;
  region.length = 16;
  region.rkey = 9;
  region.remote_write = true;
  table.register_region(region);
  EXPECT_TRUE(table.check_access(9, 0x108, 0).has_value());
}

}  // namespace
}  // namespace ibsec::ib
