// Machine-description tests: the sysfs parser runs against golden fixture
// trees (tests/fixtures/sysfs, injected via from_sysfs's root parameter), so
// it is tested byte-for-byte regardless of the CI machine.
#include <gtest/gtest.h>

#include <string>

#include "core/topology.hpp"

namespace {

using hq::cpu_desc;
using hq::topology;

std::string fixture(const char* name) {
  return std::string(HQ_FIXTURE_DIR) + "/sysfs/" + name;
}

/// Descriptor for logical CPU `cpu`; null when the model lacks it.
const cpu_desc* find(const topology& t, unsigned cpu) {
  for (const cpu_desc& d : t.cpus())
    if (d.cpu == cpu) return &d;
  return nullptr;
}

// ------------------------------------------------------------ sysfs parsing

TEST(TopologySysfs, SingleNode) {
  const topology t = topology::from_sysfs(fixture("single_node"));
  EXPECT_EQ(t.num_cpus(), 4u);
  EXPECT_EQ(t.num_nodes(), 1u);
  EXPECT_EQ(t.num_packages(), 1u);
  EXPECT_EQ(t.num_llcs(), 1u);
  EXPECT_EQ(t.num_cores(), 4u);
  EXPECT_FALSE(t.is_synthetic());
  for (const cpu_desc& d : t.cpus()) {
    EXPECT_EQ(d.node, 0u);
    EXPECT_EQ(d.smt, 0u);
  }
}

TEST(TopologySysfs, TwoSocketSmt) {
  const topology t = topology::from_sysfs(fixture("two_socket"));
  EXPECT_EQ(t.num_cpus(), 8u);
  EXPECT_EQ(t.num_nodes(), 2u);
  EXPECT_EQ(t.num_packages(), 2u);
  EXPECT_EQ(t.num_llcs(), 2u);
  EXPECT_EQ(t.num_cores(), 4u);

  const cpu_desc* c0 = find(t, 0);
  const cpu_desc* c1 = find(t, 1);
  const cpu_desc* c2 = find(t, 2);
  const cpu_desc* c4 = find(t, 4);
  ASSERT_NE(c0, nullptr);
  ASSERT_NE(c1, nullptr);
  ASSERT_NE(c2, nullptr);
  ASSERT_NE(c4, nullptr);
  // 0 and 1 are SMT siblings of one core; 2 shares their LLC/node; 4 is on
  // the other socket.
  EXPECT_EQ(c0->core, c1->core);
  EXPECT_EQ(c0->smt, 0u);
  EXPECT_EQ(c1->smt, 1u);
  EXPECT_NE(c0->core, c2->core);
  EXPECT_EQ(c0->llc, c2->llc);
  EXPECT_EQ(c0->node, c2->node);
  EXPECT_NE(c0->llc, c4->llc);
  EXPECT_NE(c0->node, c4->node);
  EXPECT_NE(c0->package, c4->package);
}

TEST(TopologySysfs, SmtOff) {
  const topology t = topology::from_sysfs(fixture("smt_off"));
  EXPECT_EQ(t.num_cpus(), 4u);
  EXPECT_EQ(t.num_nodes(), 2u);
  EXPECT_EQ(t.num_cores(), 4u);  // every CPU its own core
  for (const cpu_desc& d : t.cpus()) EXPECT_EQ(d.smt, 0u);
  const cpu_desc* c0 = find(t, 0);
  const cpu_desc* c1 = find(t, 1);
  ASSERT_NE(c0, nullptr);
  ASSERT_NE(c1, nullptr);
  // Distinct cores sharing one LLC.
  EXPECT_NE(c0->core, c1->core);
  EXPECT_EQ(c0->llc, c1->llc);
}

TEST(TopologySysfs, OfflineCpusAreSkipped) {
  const topology t = topology::from_sysfs(fixture("offline_cpus"));
  EXPECT_EQ(t.num_cpus(), 3u);  // cpu1 is offline
  EXPECT_EQ(find(t, 1), nullptr);
  ASSERT_NE(find(t, 0), nullptr);
  EXPECT_EQ(t.num_nodes(), 2u);
  // cpu0's sibling list names the offline cpu1: the SMT rank must only
  // count online siblings.
  EXPECT_EQ(find(t, 0)->smt, 0u);
}

TEST(TopologySysfs, MissingTreeIsEmpty) {
  const topology t = topology::from_sysfs(fixture("no_such_tree"));
  EXPECT_EQ(t.num_cpus(), 0u);
}

}  // namespace
