#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "common/rng.hpp"

namespace mlad::nn {
namespace {

SequenceModel make_model(std::uint64_t seed) {
  SequenceModelConfig cfg;
  cfg.input_dim = 6;
  cfg.num_classes = 5;
  cfg.hidden_dims = {7, 4};
  SequenceModel model(cfg);
  Rng rng(seed);
  model.init_params(rng);
  return model;
}

TEST(Serialize, RoundTripPreservesPredictions) {
  const SequenceModel original = make_model(33);
  std::stringstream buf;
  save_model(buf, original);
  const SequenceModel loaded = load_model(buf);

  EXPECT_EQ(loaded.config().input_dim, original.config().input_dim);
  EXPECT_EQ(loaded.config().num_classes, original.config().num_classes);
  EXPECT_EQ(loaded.config().hidden_dims, original.config().hidden_dims);
  EXPECT_EQ(loaded.param_count(), original.param_count());

  Rng rng(7);
  auto s1 = original.make_state();
  auto s2 = loaded.make_state();
  std::vector<float> p1, p2;
  for (int t = 0; t < 10; ++t) {
    std::vector<float> x(6);
    for (auto& v : x) v = static_cast<float>(rng.uniform(-1, 1));
    original.predict(s1, x, p1);
    loaded.predict(s2, x, p2);
    ASSERT_EQ(p1.size(), p2.size());
    for (std::size_t i = 0; i < p1.size(); ++i) {
      EXPECT_FLOAT_EQ(p1[i], p2[i]);
    }
  }
}

TEST(Serialize, BadMagicThrows) {
  std::stringstream buf;
  buf << "NOTAMODELxxxxxxxxxxxxxxxxxxxxxxxxxxxxx";
  EXPECT_THROW(load_model(buf), std::runtime_error);
}

TEST(Serialize, TruncatedStreamThrows) {
  const SequenceModel model = make_model(44);
  std::stringstream buf;
  save_model(buf, model);
  const std::string full = buf.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_model(cut), std::runtime_error);
}

/// Overwrite the float at byte `offset` of a saved model and reload it.
void expect_rejected_with(const std::string& saved, std::size_t offset,
                          float value) {
  std::string bytes = saved;
  ASSERT_LE(offset + sizeof(float), bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof(float));
  std::stringstream in(bytes);
  try {
    load_model(in);
    FAIL() << "a non-finite parameter at byte " << offset << " loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "load_model: non-finite parameter");
  }
}

TEST(Serialize, NonFiniteParameterThrows) {
  // Under the top-k rank rule a NaN logit never ranks, so one NaN weight
  // would silently switch the LSTM level off: loading must refuse it.
  const SequenceModel model = make_model(66);
  std::stringstream buf;
  save_model(buf, model);
  const std::string saved = buf.str();
  // Header: magic, input_dim, num_classes, layer count, two hidden widths;
  // then layer 0's w as rows, cols and its first float.
  const std::size_t first_weight = 8 + 3 * 8 + 2 * 8 + 2 * 8;
  expect_rejected_with(saved, first_weight, std::nanf(""));
  // The output layer's last bias ends the stream.
  expect_rejected_with(saved, saved.size() - sizeof(float),
                       std::numeric_limits<float>::infinity());
}

TEST(Serialize, EmptyStreamThrows) {
  std::stringstream buf;
  EXPECT_THROW(load_model(buf), std::runtime_error);
}

TEST(Serialize, FileRoundTrip) {
  const SequenceModel model = make_model(55);
  const std::string path = testing::TempDir() + "/mlad_model.bin";
  save_model_file(path, model);
  const SequenceModel loaded = load_model_file(path);
  EXPECT_EQ(loaded.param_count(), model.param_count());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_model_file("/no/such/model.bin"), std::runtime_error);
}

}  // namespace
}  // namespace mlad::nn
