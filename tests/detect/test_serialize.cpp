#include "detect/serialize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "detect/pipeline.hpp"
#include "ics/simulator.hpp"

namespace mlad::detect {
namespace {

/// Small trained framework shared by the round-trip tests.
struct SerializeFixture : ::testing::Test {
  static void SetUpTestSuite() {
    ics::SimulatorConfig sim_cfg;
    sim_cfg.cycles = 1500;
    sim_cfg.seed = 7;
    ics::GasPipelineSimulator sim(sim_cfg);
    capture = new ics::SimulationResult(sim.run());
    PipelineConfig cfg;
    cfg.combined.timeseries.hidden_dims = {16};
    cfg.combined.timeseries.epochs = 2;
    framework = new TrainedFramework(
        train_framework(capture->packages, cfg));
  }
  static void TearDownTestSuite() {
    delete framework;
    delete capture;
    framework = nullptr;
    capture = nullptr;
  }
  static ics::SimulationResult* capture;
  static TrainedFramework* framework;
};

ics::SimulationResult* SerializeFixture::capture = nullptr;
TrainedFramework* SerializeFixture::framework = nullptr;

TEST_F(SerializeFixture, RoundTripPreservesVerdicts) {
  std::stringstream buf;
  save_framework(buf, *framework->detector);
  const auto loaded = load_framework(buf);

  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->chosen_k(), framework->detector->chosen_k());
  EXPECT_EQ(loaded->package_level().database().size(),
            framework->detector->package_level().database().size());

  // Stream a slice of test traffic through both: verdicts must agree
  // package for package.
  const auto rows = ics::to_raw_rows(framework->split.test);
  auto s1 = framework->detector->make_stream();
  auto s2 = loaded->make_stream();
  const std::size_t n = std::min<std::size_t>(rows.size(), 400);
  for (std::size_t i = 0; i < n; ++i) {
    const CombinedVerdict a =
        framework->detector->classify_and_consume(s1, rows[i]);
    const CombinedVerdict b = loaded->classify_and_consume(s2, rows[i]);
    ASSERT_EQ(a.anomaly, b.anomaly) << "package " << i;
    ASSERT_EQ(a.package_level, b.package_level) << "package " << i;
    ASSERT_EQ(a.timeseries_level, b.timeseries_level) << "package " << i;
  }
}

TEST_F(SerializeFixture, RoundTripPreservesDiscretizer) {
  std::stringstream buf;
  save_framework(buf, *framework->detector);
  const auto loaded = load_framework(buf);
  const auto& orig = framework->detector->package_level().discretizer();
  const auto& back = loaded->package_level().discretizer();
  ASSERT_EQ(back.feature_count(), orig.feature_count());
  EXPECT_EQ(back.cardinalities(), orig.cardinalities());
  auto rows = ics::to_raw_rows(framework->split.test);
  rows.resize(std::min<std::size_t>(rows.size(), 200));
  // Loading rebuilds the centroid tables: the serve path's transform_into
  // must agree too, out-of-range and NaN inputs included.
  for (std::size_t i = 0; i < 40 && i < rows.size(); ++i) {
    sig::RawRow bad = rows[i];
    bad[i % bad.size()] = i % 2 == 0 ? std::nan("") : 1e9;
    rows.push_back(std::move(bad));
  }
  sig::DiscreteRow reused;
  for (const sig::RawRow& raw : rows) {
    const sig::DiscreteRow want = orig.transform(raw);
    EXPECT_EQ(back.transform(raw), want);
    back.transform_into(raw, reused);
    EXPECT_EQ(reused, want);
  }
}

TEST_F(SerializeFixture, RoundTripPreservesSignatureCounts) {
  std::stringstream buf;
  save_framework(buf, *framework->detector);
  const auto loaded = load_framework(buf);
  const auto& orig = framework->detector->package_level().database();
  const auto& back = loaded->package_level().database();
  ASSERT_EQ(back.size(), orig.size());
  EXPECT_EQ(back.total_observations(), orig.total_observations());
  for (std::size_t id = 0; id < orig.size(); ++id) {
    EXPECT_EQ(back.key_of(id), orig.key_of(id));
    EXPECT_EQ(back.count(id), orig.count(id));
  }
}

TEST_F(SerializeFixture, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/mlad_framework.bin";
  save_framework_file(path, *framework->detector);
  const auto loaded = load_framework_file(path);
  EXPECT_EQ(loaded->chosen_k(), framework->detector->chosen_k());
}

TEST_F(SerializeFixture, BadMagicThrows) {
  std::stringstream buf;
  buf << "this is definitely not a framework file";
  EXPECT_THROW(load_framework(buf), std::runtime_error);
}

TEST_F(SerializeFixture, TruncatedStreamThrows) {
  std::stringstream buf;
  save_framework(buf, *framework->detector);
  const std::string full = buf.str();
  std::stringstream cut(full.substr(0, full.size() / 3));
  EXPECT_THROW(load_framework(cut), std::runtime_error);
}

TEST_F(SerializeFixture, MissingFileThrows) {
  EXPECT_THROW(load_framework_file("/no/such/framework.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace mlad::detect
