#include "core/instance.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "util/error.hpp"

namespace pcmax {
namespace {

TEST(Instance, StoresJobsAndMachines) {
  const Instance instance(3, {5, 2, 9, 1});
  EXPECT_EQ(instance.machines(), 3);
  EXPECT_EQ(instance.jobs(), 4);
  EXPECT_EQ(instance.time(0), 5);
  EXPECT_EQ(instance.time(3), 1);
  EXPECT_EQ(instance.total_time(), 17);
  EXPECT_EQ(instance.max_time(), 9);
}

TEST(Instance, TimesSpanMatchesInput) {
  const Instance instance(1, {4, 4, 4});
  const auto times = instance.times();
  ASSERT_EQ(times.size(), 3u);
  for (Time t : times) EXPECT_EQ(t, 4);
}

TEST(Instance, RejectsInvalidInputs) {
  EXPECT_THROW(Instance(0, {1}), InvalidArgumentError);
  EXPECT_THROW(Instance(-1, {1}), InvalidArgumentError);
  EXPECT_THROW(Instance(1, {}), InvalidArgumentError);
  EXPECT_THROW(Instance(1, {0}), InvalidArgumentError);
  EXPECT_THROW(Instance(1, {5, -2}), InvalidArgumentError);
}

TEST(Instance, RejectsTotalTimeOverflow) {
  const Time huge = std::numeric_limits<Time>::max() / 2 + 1;
  EXPECT_THROW(Instance(1, {huge, huge}), InvalidArgumentError);
}

TEST(Instance, ToStringAndParseRoundTrip) {
  const Instance original(4, {10, 20, 30});
  const Instance parsed = Instance::parse(original.to_string());
  EXPECT_EQ(parsed, original);
}

TEST(Instance, ParseAcceptsCanonicalFormat) {
  const Instance instance = Instance::parse("2 3 7 8 9");
  EXPECT_EQ(instance.machines(), 2);
  EXPECT_EQ(instance.jobs(), 3);
  EXPECT_EQ(instance.time(2), 9);
}

TEST(Instance, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)Instance::parse(""), InvalidArgumentError);
  EXPECT_THROW((void)Instance::parse("2"), InvalidArgumentError);
  EXPECT_THROW((void)Instance::parse("2 3 1 2"), InvalidArgumentError);      // short
  EXPECT_THROW((void)Instance::parse("2 2 1 2 3"), InvalidArgumentError);    // long
  EXPECT_THROW((void)Instance::parse("2 0"), InvalidArgumentError);          // no jobs
  EXPECT_THROW((void)Instance::parse("x y z"), InvalidArgumentError);        // junk
  EXPECT_THROW((void)Instance::parse("0 1 5"), InvalidArgumentError);        // m = 0
}

TEST(Instance, ParseRejectsAJobCountTheTextCannotHold) {
  // The count is read before the times: a huge one must not allocate ahead
  // of them, only fail on the missing times.
  EXPECT_THROW((void)Instance::parse("1 2147483647 5"), InvalidArgumentError);
}

TEST(Instance, VersionedWireFormatRoundTrips) {
  // Classic instances stay on the legacy "m n t..." line forever; variant
  // instances serialize to the self-describing pcmax.instance.v2 form and
  // parse() accepts both. (Golden strings pinned in core_variant_test.)
  EXPECT_EQ(Instance(2, {3, 4}).to_string(), "2 2 3 4");
  const Instance capped = Instance::capacity_restricted(3, {5, 6, 7}, 2);
  const Instance incremental = Instance::incremental(2, {8, 9});
  EXPECT_EQ(Instance::parse(capped.to_string()), capped);
  EXPECT_EQ(Instance::parse(incremental.to_string()), incremental);
  // A v2 line that spells out "classic" parses to a plain instance too.
  EXPECT_EQ(Instance::parse("pcmax.instance.v2 classic 2 2 3 4"),
            Instance(2, {3, 4}));
  EXPECT_THROW((void)Instance::parse("pcmax.instance.v3 classic 2 2 3 4"),
               InvalidArgumentError);
}

TEST(Instance, StreamOutputMatchesToString) {
  const Instance instance(2, {3, 4});
  std::ostringstream os;
  os << instance;
  EXPECT_EQ(os.str(), instance.to_string());
  EXPECT_EQ(os.str(), "2 2 3 4");
}

TEST(Instance, EqualityComparesMachinesAndTimes) {
  EXPECT_EQ(Instance(2, {1, 2}), Instance(2, {1, 2}));
  EXPECT_NE(Instance(2, {1, 2}), Instance(3, {1, 2}));
  EXPECT_NE(Instance(2, {1, 2}), Instance(2, {2, 1}));
}

}  // namespace
}  // namespace pcmax
