#include "dnn/models.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ca::dnn {

namespace {

/// He-normal initialization stddev for a conv/dense weight.
float he_std(std::size_t fan_in) {
  return std::sqrt(2.0f / static_cast<float>(fan_in));
}

struct ConvParams {
  Tensor w;
  Tensor b;
  std::size_t stride = 1;
  std::size_t pad = 1;
  std::size_t fan_in = 0;
};

ConvParams make_conv(Engine& eng, std::size_t cin, std::size_t cout,
                     std::size_t k, std::size_t stride, std::size_t pad,
                     const std::string& name) {
  ConvParams p;
  p.w = eng.parameter({cout, cin, k, k}, name + ".w");
  p.b = eng.parameter({cout}, name + ".b");
  p.stride = stride;
  p.pad = pad;
  p.fan_in = cin * k * k;
  return p;
}

struct BnParams {
  Tensor gamma;
  Tensor beta;
};

BnParams make_bn(Engine& eng, std::size_t c, const std::string& name) {
  return {eng.parameter({c}, name + ".gamma"),
          eng.parameter({c}, name + ".beta")};
}

std::size_t count_params(const std::vector<Tensor>& params) {
  std::size_t n = 0;
  for (const auto& p : params) n += p.numel();
  return n;
}

// --- VGG --------------------------------------------------------------------

class VggNet final : public Model {
 public:
  VggNet(Engine& eng, ModelSpec spec) : spec_(std::move(spec)) {
    CA_CHECK(!spec_.stages.empty(), "VGG needs at least one stage");
    std::size_t cin = 3;
    for (std::size_t s = 0; s < spec_.stages.size(); ++s) {
      const std::size_t cout =
          spec_.base_channels * std::min<std::size_t>(std::size_t{1} << s, 8);
      std::vector<ConvParams> stage;
      for (std::size_t l = 0; l < spec_.stages[s]; ++l) {
        stage.push_back(make_conv(eng, cin, cout, 3, 1, 1,
                                  "vgg.s" + std::to_string(s) + ".c" +
                                      std::to_string(l)));
        cin = cout;
      }
      stages_.push_back(std::move(stage));
    }
    head_w_ = eng.parameter({spec_.classes, cin}, "vgg.head.w");
    head_b_ = eng.parameter({spec_.classes}, "vgg.head.b");
    head_in_ = cin;
  }

  const ModelSpec& spec() const override { return spec_; }

  Tensor forward(Engine& eng, const Tensor& input) override {
    Tensor x = input;
    for (const auto& stage : stages_) {
      for (const auto& conv : stage) {
        x = eng.relu(eng.conv2d(x, conv.w, conv.b, conv.stride, conv.pad));
      }
      x = eng.maxpool2(x);
    }
    x = eng.global_avgpool(x);
    return eng.dense(x, head_w_, head_b_);
  }

  void init(Engine& eng, std::uint64_t seed) override {
    std::uint64_t s = seed;
    for (auto& stage : stages_) {
      for (auto& conv : stage) {
        eng.fill_normal(conv.w, he_std(conv.fan_in), ++s);
        eng.fill_zero(conv.b);
      }
    }
    eng.fill_normal(head_w_, he_std(head_in_), ++s);
    eng.fill_zero(head_b_);
  }

  std::size_t parameter_count() const override {
    std::size_t n = head_w_.numel() + head_b_.numel();
    for (const auto& stage : stages_) {
      for (const auto& conv : stage) n += conv.w.numel() + conv.b.numel();
    }
    return n;
  }

 private:
  ModelSpec spec_;
  std::vector<std::vector<ConvParams>> stages_;
  Tensor head_w_, head_b_;
  std::size_t head_in_ = 0;
};

// --- ResNet -----------------------------------------------------------------

class ResNet final : public Model {
 public:
  ResNet(Engine& eng, ModelSpec spec) : spec_(std::move(spec)) {
    CA_CHECK(!spec_.stages.empty(), "ResNet needs at least one stage");
    stem_ = make_conv(eng, 3, spec_.base_channels, 3, 1, 1, "rn.stem");
    stem_bn_ = make_bn(eng, spec_.base_channels, "rn.stem");
    std::size_t cin = spec_.base_channels;
    for (std::size_t s = 0; s < spec_.stages.size(); ++s) {
      const std::size_t cout = spec_.base_channels << s;
      for (std::size_t blk = 0; blk < spec_.stages[s]; ++blk) {
        Block b;
        const std::size_t stride = (s > 0 && blk == 0) ? 2 : 1;
        const std::string name =
            "rn.s" + std::to_string(s) + ".b" + std::to_string(blk);
        b.conv1 = make_conv(eng, cin, cout, 3, stride, 1, name + ".c1");
        b.bn1 = make_bn(eng, cout, name + ".bn1");
        b.conv2 = make_conv(eng, cout, cout, 3, 1, 1, name + ".c2");
        b.bn2 = make_bn(eng, cout, name + ".bn2");
        if (stride != 1 || cin != cout) {
          b.proj = make_conv(eng, cin, cout, 1, stride, 0, name + ".proj");
          b.has_proj = true;
        }
        blocks_.push_back(std::move(b));
        cin = cout;
      }
    }
    head_w_ = eng.parameter({spec_.classes, cin}, "rn.head.w");
    head_b_ = eng.parameter({spec_.classes}, "rn.head.b");
    head_in_ = cin;
  }

  const ModelSpec& spec() const override { return spec_; }

  Tensor forward(Engine& eng, const Tensor& input) override {
    Tensor x = eng.relu(
        eng.batchnorm(eng.conv2d(input, stem_.w, stem_.b, 1, 1),
                      stem_bn_.gamma, stem_bn_.beta));
    for (const auto& b : blocks_) {
      Tensor identity = x;
      Tensor y = eng.relu(eng.batchnorm(
          eng.conv2d(x, b.conv1.w, b.conv1.b, b.conv1.stride, b.conv1.pad),
          b.bn1.gamma, b.bn1.beta));
      y = eng.batchnorm(eng.conv2d(y, b.conv2.w, b.conv2.b, 1, 1),
                        b.bn2.gamma, b.bn2.beta);
      if (b.has_proj) {
        identity = eng.conv2d(x, b.proj.w, b.proj.b, b.proj.stride, 0);
      }
      x = eng.relu(eng.add(y, identity));
    }
    x = eng.global_avgpool(x);
    return eng.dense(x, head_w_, head_b_);
  }

  void init(Engine& eng, std::uint64_t seed) override {
    std::uint64_t s = seed;
    auto init_conv = [&](ConvParams& c) {
      eng.fill_normal(c.w, he_std(c.fan_in), ++s);
      eng.fill_zero(c.b);
    };
    auto init_bn = [&](BnParams& bn) {
      eng.fill_const(bn.gamma, 1.0f);
      eng.fill_zero(bn.beta);
    };
    init_conv(stem_);
    init_bn(stem_bn_);
    for (auto& b : blocks_) {
      init_conv(b.conv1);
      init_bn(b.bn1);
      init_conv(b.conv2);
      init_bn(b.bn2);
      if (b.has_proj) init_conv(b.proj);
    }
    eng.fill_normal(head_w_, he_std(head_in_), ++s);
    eng.fill_zero(head_b_);
  }

  std::size_t parameter_count() const override {
    std::vector<Tensor> all = {stem_.w, stem_.b, stem_bn_.gamma,
                               stem_bn_.beta, head_w_, head_b_};
    for (const auto& b : blocks_) {
      all.insert(all.end(), {b.conv1.w, b.conv1.b, b.bn1.gamma, b.bn1.beta,
                             b.conv2.w, b.conv2.b, b.bn2.gamma, b.bn2.beta});
      if (b.has_proj) all.insert(all.end(), {b.proj.w, b.proj.b});
    }
    return count_params(all);
  }

 private:
  struct Block {
    ConvParams conv1, conv2, proj;
    BnParams bn1, bn2;
    bool has_proj = false;
  };

  ModelSpec spec_;
  ConvParams stem_;
  BnParams stem_bn_;
  std::vector<Block> blocks_;
  Tensor head_w_, head_b_;
  std::size_t head_in_ = 0;
};

// --- DenseNet ---------------------------------------------------------------

class DenseNet final : public Model {
 public:
  DenseNet(Engine& eng, ModelSpec spec) : spec_(std::move(spec)) {
    CA_CHECK(!spec_.stages.empty(), "DenseNet needs at least one block");
    stem_ = make_conv(eng, 3, spec_.base_channels, 3, 1, 1, "dn.stem");
    std::size_t channels = spec_.base_channels;
    for (std::size_t blk = 0; blk < spec_.stages.size(); ++blk) {
      BlockParams bp;
      for (std::size_t l = 0; l < spec_.stages[blk]; ++l) {
        const std::string name =
            "dn.b" + std::to_string(blk) + ".l" + std::to_string(l);
        Layer layer;
        layer.bn = make_bn(eng, channels, name);
        layer.conv = make_conv(eng, channels, spec_.growth, 3, 1, 1, name);
        bp.layers.push_back(std::move(layer));
        channels += spec_.growth;
      }
      if (blk + 1 < spec_.stages.size()) {
        const std::size_t half = channels / 2;
        bp.transition = make_conv(eng, channels, half, 1, 1, 0,
                                  "dn.t" + std::to_string(blk));
        bp.has_transition = true;
        channels = half;
      }
      blocks_.push_back(std::move(bp));
    }
    head_w_ = eng.parameter({spec_.classes, channels}, "dn.head.w");
    head_b_ = eng.parameter({spec_.classes}, "dn.head.b");
    head_in_ = channels;
  }

  const ModelSpec& spec() const override { return spec_; }

  Tensor forward(Engine& eng, const Tensor& input) override {
    Tensor x = eng.conv2d(input, stem_.w, stem_.b, 1, 1);
    for (const auto& bp : blocks_) {
      for (const auto& layer : bp.layers) {
        Tensor t = eng.relu(
            eng.batchnorm(x, layer.bn.gamma, layer.bn.beta));
        t = eng.conv2d(t, layer.conv.w, layer.conv.b, 1, 1);
        x = eng.concat(x, t);
      }
      if (bp.has_transition) {
        x = eng.maxpool2(
            eng.conv2d(x, bp.transition.w, bp.transition.b, 1, 0));
      }
    }
    x = eng.global_avgpool(x);
    return eng.dense(x, head_w_, head_b_);
  }

  void init(Engine& eng, std::uint64_t seed) override {
    std::uint64_t s = seed;
    eng.fill_normal(stem_.w, he_std(stem_.fan_in), ++s);
    eng.fill_zero(stem_.b);
    for (auto& bp : blocks_) {
      for (auto& layer : bp.layers) {
        eng.fill_const(layer.bn.gamma, 1.0f);
        eng.fill_zero(layer.bn.beta);
        eng.fill_normal(layer.conv.w, he_std(layer.conv.fan_in), ++s);
        eng.fill_zero(layer.conv.b);
      }
      if (bp.has_transition) {
        eng.fill_normal(bp.transition.w, he_std(bp.transition.fan_in), ++s);
        eng.fill_zero(bp.transition.b);
      }
    }
    eng.fill_normal(head_w_, he_std(head_in_), ++s);
    eng.fill_zero(head_b_);
  }

  std::size_t parameter_count() const override {
    std::vector<Tensor> all = {stem_.w, stem_.b, head_w_, head_b_};
    for (const auto& bp : blocks_) {
      for (const auto& layer : bp.layers) {
        all.insert(all.end(), {layer.bn.gamma, layer.bn.beta, layer.conv.w,
                               layer.conv.b});
      }
      if (bp.has_transition) {
        all.insert(all.end(), {bp.transition.w, bp.transition.b});
      }
    }
    return count_params(all);
  }

 private:
  struct Layer {
    BnParams bn;
    ConvParams conv;
  };
  struct BlockParams {
    std::vector<Layer> layers;
    ConvParams transition;
    bool has_transition = false;
  };

  ModelSpec spec_;
  ConvParams stem_;
  std::vector<BlockParams> blocks_;
  Tensor head_w_, head_b_;
  std::size_t head_in_ = 0;
};

}  // namespace

// --- presets -----------------------------------------------------------------
// Batch sizes are calibrated so the measured iteration footprints land at
// the paper's Table III numbers in MiB (520-530 large, 170-180 small); see
// `bench/paper table3`.

ModelSpec ModelSpec::vgg416_large() {
  ModelSpec s;
  s.family = Family::kVgg;
  s.name = "VGG 416";
  s.stages = {64, 64, 96, 96, 96};  // 416 convolutions
  s.batch = 20;
  s.image = 32;
  s.base_channels = 16;
  s.compute_efficiency = 1.6;  // memory-bound kernels (paper §V-c)
  s.conv_read_passes = 5;
  return s;
}

ModelSpec ModelSpec::vgg116_small() {
  ModelSpec s = vgg416_large();
  s.name = "VGG 116";
  s.stages = {18, 18, 27, 27, 26};  // 116 convolutions
  s.batch = 27;
  return s;
}

ModelSpec ModelSpec::resnet200_large() {
  ModelSpec s;
  s.family = Family::kResNet;
  s.name = "ResNet 200";
  s.stages = {3, 24, 36, 3};
  s.batch = 21;
  s.image = 32;
  s.base_channels = 32;
  s.compute_efficiency = 0.65;  // uniform basic-block convs vectorize well
  s.conv_read_passes = 1;  // bottleneck convs stream their inputs once
  return s;
}

ModelSpec ModelSpec::resnet200_small() {
  ModelSpec s = resnet200_large();
  s.batch = 5;
  return s;
}

ModelSpec ModelSpec::densenet264_large() {
  ModelSpec s;
  s.family = Family::kDenseNet;
  s.name = "DenseNet 264";
  s.stages = {6, 12, 64, 48};
  s.growth = 16;
  s.batch = 9;
  s.image = 32;
  s.base_channels = 32;
  s.compute_efficiency = 0.15;  // dense blocks: lower achieved flop rate
  s.conv_read_passes = 1;  // small growth-rate convs stream inputs once
  return s;
}

ModelSpec ModelSpec::densenet264_small() {
  ModelSpec s = densenet264_large();
  s.batch = 2;
  return s;
}

ModelSpec ModelSpec::vgg_tiny() {
  ModelSpec s;
  s.family = Family::kVgg;
  s.name = "VGG tiny";
  s.stages = {1, 1};
  s.batch = 2;
  s.image = 8;
  s.classes = 5;
  s.base_channels = 4;
  return s;
}

ModelSpec ModelSpec::resnet_tiny() {
  ModelSpec s;
  s.family = Family::kResNet;
  s.name = "ResNet tiny";
  s.stages = {1, 1};
  s.batch = 2;
  s.image = 8;
  s.classes = 5;
  s.base_channels = 4;
  return s;
}

ModelSpec ModelSpec::densenet_tiny() {
  ModelSpec s;
  s.family = Family::kDenseNet;
  s.name = "DenseNet tiny";
  s.stages = {2, 2};
  s.growth = 4;
  s.batch = 2;
  s.image = 8;
  s.classes = 5;
  s.base_channels = 4;
  return s;
}

std::unique_ptr<Model> build_model(Engine& engine, const ModelSpec& spec) {
  switch (spec.family) {
    case ModelSpec::Family::kVgg:
      return std::make_unique<VggNet>(engine, spec);
    case ModelSpec::Family::kResNet:
      return std::make_unique<ResNet>(engine, spec);
    case ModelSpec::Family::kDenseNet:
      return std::make_unique<DenseNet>(engine, spec);
  }
  throw UsageError("unknown model family");
}

}  // namespace ca::dnn
