// Model zoo: the paper's benchmark networks (Table III) at 1:1000 scale,
// plus tiny presets for the real-math test suite.
//
// The paper trains VGG 416 (a greatly extended VGG 16 from the vDNN line),
// ResNet 200 and DenseNet 264 with batch sizes chosen so a training
// iteration needs ~520-530 GB (large) or 170-180 GB (small).  We reproduce
// the same architectures with spatial/channel/batch dimensions scaled so
// the footprints land at the same numbers in MiB.  Footprints are measured,
// not asserted: `bench/paper table3` prints the achieved values.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dnn/engine.hpp"

namespace ca::dnn {

struct ModelSpec {
  enum class Family { kVgg, kResNet, kDenseNet };

  Family family = Family::kVgg;
  std::string name;
  std::size_t batch = 4;
  std::size_t image = 32;    ///< input is (batch, 3, image, image)
  std::size_t classes = 100;
  std::size_t base_channels = 16;

  /// Per-family meaning: VGG = convs per stage; ResNet = residual blocks
  /// per stage; DenseNet = dense layers per block.
  std::vector<std::size_t> stages;

  std::size_t growth = 16;  ///< DenseNet growth rate

  /// Arithmetic efficiency this model's conv kernels achieve (see
  /// EngineConfig::compute_efficiency).  VGG's kernels are configured
  /// memory-bound ("more sensitive to read bandwidth", paper §V-c).
  double compute_efficiency = 0.35;

  /// Passes the model's conv/dense kernels make over their read arguments
  /// (EngineConfig::conv_read_passes).  VGG's dense 3x3 stacks have poor
  /// blocking reuse and sweep inputs more often, which is what makes them
  /// "more sensitive to read bandwidth" (paper SV-c) and what prefetching
  /// exploits.
  int conv_read_passes = 2;

  // --- Table III presets (large: ~520-530 MiB; small: ~170-180 MiB) ------
  static ModelSpec vgg416_large();
  static ModelSpec vgg116_small();
  static ModelSpec resnet200_large();
  static ModelSpec resnet200_small();
  static ModelSpec densenet264_large();
  static ModelSpec densenet264_small();

  // --- tiny presets for the real-math tests/examples ---------------------
  static ModelSpec vgg_tiny();
  static ModelSpec resnet_tiny();
  static ModelSpec densenet_tiny();
};

/// A constructed network: parameters registered with the engine plus a
/// forward function over tape ops.
class Model {
 public:
  virtual ~Model() = default;

  [[nodiscard]] virtual const ModelSpec& spec() const = 0;

  /// Input shape (batch, 3, image, image).
  [[nodiscard]] Shape input_shape() const {
    const auto& s = spec();
    return {s.batch, 3, s.image, s.image};
  }

  /// Run the forward pass, returning (batch, classes) logits.
  virtual Tensor forward(Engine& engine, const Tensor& input) = 0;

  /// Initialize all parameters (He-normal weights, zero biases).  No-op
  /// arithmetic under the sim backend.
  virtual void init(Engine& engine, std::uint64_t seed) = 0;

  /// Total parameter elements.
  [[nodiscard]] virtual std::size_t parameter_count() const = 0;
};

/// Instantiate a model (allocating its parameters through the engine).
std::unique_ptr<Model> build_model(Engine& engine, const ModelSpec& spec);

}  // namespace ca::dnn
