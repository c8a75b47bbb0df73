// Registry x option: every registered figure, run under a non-default
// protocol option, either refuses it with ConfigError before appending
// anything to the run store, or honours it on every run, so none of its
// store keys equals a key of the default run. A figure that sweeps an
// option itself owns it and must refuse a user value: capacity_* owns
// eviction, bloom_* the summary mode and filter density, robust_* and
// bloom_fault_* the fault plan.
//
// city_* are skipped for time (about 2 s each at one replication, against
// well under 0.1 s for every other figure); they run the same run_figure
// path as fig07..fig20.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"
#include "exp/figures.hpp"
#include "fault/plan.hpp"
#include "store/run_store.hpp"

namespace epi::exp {
namespace {

namespace fs = std::filesystem;

struct Outcome {
  bool refused = false;
  std::set<std::string> keys;  ///< every key the run appended
};

/// Runs `spec` at one replication with `block` against a fresh store.
Outcome run_with(const FigureSpec& spec, const ProtocolOptions& block,
                 const std::string& variant) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("epi_figopt_" + std::string(spec.id) + "_" + variant);
  fs::remove_all(dir);
  Outcome out;
  {
    store::RunStore store(dir);
    FigureOptions options;
    options.replications = 1;
    options.options = block;
    options.store = &store;
    try {
      (void)spec.run(options);
    } catch (const ConfigError&) {
      out.refused = true;
    }
    store.for_each([&](const std::string& key, const metrics::RunSummary&) {
      out.keys.insert(key);
    });
  }
  fs::remove_all(dir);
  return out;
}

bool starts_with(std::string_view id, std::string_view prefix) {
  return id.substr(0, prefix.size()) == prefix;
}

bool disjoint(const std::set<std::string>& a, const std::set<std::string>& b) {
  std::vector<std::string> common;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(common));
  return common.empty();
}

struct Variant {
  const char* name;
  void (*set)(ProtocolOptions& block);
  bool (*owned_by)(std::string_view id);  ///< figures that must refuse it
};

const Variant kVariants[] = {
    {"evict", [](ProtocolOptions& o) {
       o.eviction = EvictionPolicy::kDropOldest;
     },
     [](std::string_view id) { return starts_with(id, "capacity_"); }},
    {"bloom12", [](ProtocolOptions& o) {
       o.summary.mode = SummaryMode::kBloom;
       o.summary.filter_bits = 12;
     },
     [](std::string_view id) { return starts_with(id, "bloom_"); }},
    {"loss", [](ProtocolOptions& o) {
       o.fault = fault::FaultPlanBuilder().slot_loss(0.1).build();
     },
     [](std::string_view id) {
       return starts_with(id, "robust_") || starts_with(id, "bloom_fault_");
     }},
};

class RegistryOption : public ::testing::TestWithParam<const FigureSpec*> {};

TEST_P(RegistryOption, EveryOptionReachesTheKeyOrIsRefused) {
  const FigureSpec& spec = *GetParam();
  const Outcome defaults = run_with(spec, {}, "default");
  ASSERT_FALSE(defaults.refused);
  ASSERT_FALSE(defaults.keys.empty());

  for (const Variant& variant : kVariants) {
    SCOPED_TRACE(variant.name);
    ProtocolOptions block;
    variant.set(block);
    const Outcome out = run_with(spec, block, variant.name);
    EXPECT_EQ(out.refused, variant.owned_by(spec.id));
    if (out.refused) {
      EXPECT_TRUE(out.keys.empty()) << "refused only after appending";
    } else {
      EXPECT_FALSE(out.keys.empty());
      EXPECT_TRUE(disjoint(out.keys, defaults.keys))
          << "the option was dropped on some run";
    }
  }

  // An explicit hash count changes every Bloom figure's keys; under the
  // exact codec it is inert by design, so every other figure's keys stay.
  ProtocolOptions hashes;
  hashes.summary.hashes = 2;
  const Outcome out = run_with(spec, hashes, "hashes");
  EXPECT_FALSE(out.refused);
  if (starts_with(spec.id, "bloom_")) {
    EXPECT_TRUE(disjoint(out.keys, defaults.keys));
  } else {
    EXPECT_EQ(out.keys, defaults.keys);
  }
}

std::vector<const FigureSpec*> registry_without_city() {
  std::vector<const FigureSpec*> specs;
  for (const FigureSpec& spec : figure_registry()) {
    if (!starts_with(spec.id, "city_")) specs.push_back(&spec);
  }
  return specs;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, RegistryOption, ::testing::ValuesIn(registry_without_city()),
    [](const ::testing::TestParamInfo<const FigureSpec*>& spec_info) {
      return std::string(spec_info.param->id);
    });

}  // namespace
}  // namespace epi::exp
