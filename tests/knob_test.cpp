// The knob tables (core/knobs.cpp): every daemon flag, its range, the
// single-field checks of validate() and the describe() dump come from one
// row per knob. These tests pin the dump and check the rows themselves.
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/knobs.hpp"

#ifndef BRISK_TESTDATA_DIR
#error "BRISK_TESTDATA_DIR must be defined by the build"
#endif

namespace brisk {
namespace {

std::string testdata(const std::string& name) {
  std::ifstream file(std::string(BRISK_TESTDATA_DIR) + "/" + name);
  std::stringstream text;
  text << file.rdbuf();
  return text.str();
}

// The default dumps: perfbench records these lines, so a table edit that
// drops, renames or reorders a knob shows up here.
TEST(KnobTableTest, DescribeDefaultsGolden) {
  EXPECT_EQ(describe(ManagerConfig{}), testdata("describe_manager_defaults.txt"));
  EXPECT_EQ(describe(NodeConfig{}), testdata("describe_node_defaults.txt"));
}

template <typename Config>
void expect_well_formed(std::span<const Knob<Config>> knobs) {
  std::set<std::string> flags;
  std::set<std::string> keys;
  std::set<int> positions;
  Config config{};
  for (const Knob<Config>& knob : knobs) {
    const std::string name = knob.flag != nullptr ? knob.flag : knob.key;
    ASSERT_TRUE(knob.flag != nullptr || knob.key != nullptr);
    ASSERT_NE(knob.field.get, nullptr) << name;
    if (knob.flag != nullptr) {
      EXPECT_TRUE(flags.insert(knob.flag).second) << name;
      EXPECT_NE(knob.help, nullptr) << name;
    }
    if (knob.key != nullptr) {
      EXPECT_TRUE(keys.insert(knob.key).second) << name;
      EXPECT_TRUE(positions.insert(knob.dump).second) << name;
    }
    // The default sits inside the range, and both ends of the range fit the
    // field: a bound past the field's type would wrap when stored.
    EXPECT_EQ(knob_range_error(knob.field.get(Config{}), knob.min, knob.max), "") << name;
    if (knob.field.set == nullptr) continue;
    if (!std::holds_alternative<long long>(knob.field.get(config))) continue;
    for (const long long bound : {knob.min, knob.max}) {
      ASSERT_TRUE(knob.field.set(config, bound)) << name;
      EXPECT_EQ(std::get<long long>(knob.field.get(config)), bound) << name;
    }
  }
}

TEST(KnobTableTest, RowsAreWellFormed) {
  expect_well_formed(manager_knobs());
  expect_well_formed(node_knobs());
  expect_well_formed(fault_knobs());
}

TEST(KnobTableTest, ValidateNamesTheKnobOutOfRange) {
  ManagerConfig manager;
  manager.ism.sync.period_us = 0;
  Status st = manager.validate();
  EXPECT_FALSE(st);
  EXPECT_NE(st.message().find("sync.period_us"), std::string::npos) << st.message();

  NodeConfig node;
  node.trace_sample_rate = 1.5;
  st = node.validate();
  EXPECT_FALSE(st);
  EXPECT_NE(st.message().find("trace_sample_rate"), std::string::npos) << st.message();
}

}  // namespace
}  // namespace brisk
