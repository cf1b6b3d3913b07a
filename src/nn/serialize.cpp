#include "nn/serialize.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace mlad::nn {
namespace {

constexpr char kMagic[8] = {'M', 'L', 'A', 'D', 'N', 'N', '0', '1'};
constexpr char kAdamMagic[8] = {'M', 'L', 'A', 'D', 'A', 'D', '0', '1'};

void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("load_model: truncated stream");
  return v;
}

void write_matrix(std::ostream& out, const Matrix& m) {
  write_u64(out, m.rows());
  write_u64(out, m.cols());
  out.write(reinterpret_cast<const char*>(m.data()),
            static_cast<std::streamsize>(m.size() * sizeof(float)));
}

void read_matrix(std::istream& in, Matrix& m) {
  const std::uint64_t rows = read_u64(in);
  const std::uint64_t cols = read_u64(in);
  if (rows != m.rows() || cols != m.cols()) {
    throw std::runtime_error("load_model: matrix shape mismatch");
  }
  in.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.size() * sizeof(float)));
  if (!in) throw std::runtime_error("load_model: truncated stream");
  // A NaN logit is never "greater" under the top-k rank rule, so one NaN
  // weight would silently switch the LSTM level off. NaN and ±Inf are the
  // floats whose exponent bits are all ones; an integer OR-reduction over
  // that test vectorizes (a float isfinite loop did not, and tripled the
  // load time).
  constexpr std::uint32_t kExponent = 0x7f800000u;
  std::uint32_t non_finite = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, m.data() + i, sizeof(bits));
    non_finite |= static_cast<std::uint32_t>((bits & kExponent) == kExponent);
  }
  if (non_finite != 0) {
    throw std::runtime_error("load_model: non-finite parameter");
  }
}

}  // namespace

void save_model(std::ostream& out, const SequenceModel& model) {
  out.write(kMagic, sizeof(kMagic));
  const auto& cfg = model.config();
  write_u64(out, cfg.input_dim);
  write_u64(out, cfg.num_classes);
  write_u64(out, cfg.hidden_dims.size());
  for (std::size_t hd : cfg.hidden_dims) write_u64(out, hd);
  // const_cast-free access via const accessors
  for (std::size_t li = 0; li < model.lstm().num_layers(); ++li) {
    const LstmCell& cell = model.lstm().layer(li).cell();
    write_matrix(out, cell.w());
    write_matrix(out, cell.u());
    write_matrix(out, cell.b());
  }
  write_matrix(out, model.output_layer().w());
  write_matrix(out, model.output_layer().b());
  if (!out) throw std::runtime_error("save_model: write failure");
}

void save_model_file(const std::string& path, const SequenceModel& model) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_model_file: cannot open " + path);
  save_model(out, model);
}

SequenceModel load_model(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("load_model: bad magic");
  }
  SequenceModelConfig cfg;
  cfg.input_dim = read_u64(in);
  cfg.num_classes = read_u64(in);
  const std::uint64_t n_layers = read_u64(in);
  cfg.hidden_dims.clear();
  for (std::uint64_t i = 0; i < n_layers; ++i) {
    cfg.hidden_dims.push_back(read_u64(in));
  }
  SequenceModel model(cfg);
  for (std::size_t li = 0; li < model.lstm().num_layers(); ++li) {
    LstmCell& cell = model.lstm().layer(li).cell();
    read_matrix(in, cell.w());
    read_matrix(in, cell.u());
    read_matrix(in, cell.b());
  }
  read_matrix(in, model.output_layer().w());
  read_matrix(in, model.output_layer().b());
  return model;
}

SequenceModel load_model_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_model_file: cannot open " + path);
  return load_model(in);
}

void save_adam_state(std::ostream& out, const AdamState& state) {
  if (state.m.size() != state.v.size()) {
    throw std::invalid_argument("save_adam_state: m/v slot count mismatch");
  }
  out.write(kAdamMagic, sizeof(kAdamMagic));
  write_u64(out, state.t);
  write_u64(out, state.m.size());
  for (std::size_t i = 0; i < state.m.size(); ++i) {
    if (state.m[i].size() != state.v[i].size()) {
      throw std::invalid_argument("save_adam_state: m/v size mismatch");
    }
    write_u64(out, state.m[i].size());
    out.write(reinterpret_cast<const char*>(state.m[i].data()),
              static_cast<std::streamsize>(state.m[i].size() * sizeof(float)));
    out.write(reinterpret_cast<const char*>(state.v[i].data()),
              static_cast<std::streamsize>(state.v[i].size() * sizeof(float)));
  }
  if (!out) throw std::runtime_error("save_adam_state: write failure");
}

void save_adam_state_file(const std::string& path, const AdamState& state) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("save_adam_state_file: cannot open " + path);
  }
  save_adam_state(out, state);
}

AdamState load_adam_state(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kAdamMagic, sizeof(kAdamMagic)) != 0) {
    throw std::runtime_error("load_adam_state: bad magic");
  }
  AdamState state;
  state.t = read_u64(in);
  const std::uint64_t slots = read_u64(in);
  state.m.resize(slots);
  state.v.resize(slots);
  for (std::uint64_t i = 0; i < slots; ++i) {
    const std::uint64_t n = read_u64(in);
    state.m[i].resize(n);
    state.v[i].resize(n);
    in.read(reinterpret_cast<char*>(state.m[i].data()),
            static_cast<std::streamsize>(n * sizeof(float)));
    in.read(reinterpret_cast<char*>(state.v[i].data()),
            static_cast<std::streamsize>(n * sizeof(float)));
    if (!in) throw std::runtime_error("load_adam_state: truncated stream");
  }
  return state;
}

AdamState load_adam_state_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_adam_state_file: cannot open " + path);
  }
  return load_adam_state(in);
}

}  // namespace mlad::nn
