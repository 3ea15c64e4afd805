#include "workloads.hpp"

#include <memory>
#include <utility>

#include "core/convert.hpp"
#include "data/events.hpp"
#include "nn/resnet.hpp"
#include "nn/vgg.hpp"
#include "snn/encoding.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using namespace sia;

/// Calibrated random weights: a few BN-warming forward passes, one
/// activation-calibration pass, then the paper's L = 2 quantized ReLU.
/// The fixed model seed keeps the system under test identical across
/// runs; only the inputs follow --seed.
template <typename ModelT, typename ConfigT>
BuiltModel build_calibrated(ConfigT cfg) {
    BuiltModel out;
    const util::WallTimer build_timer;
    util::Rng rng(97);
    auto model = std::make_unique<ModelT>(cfg, rng);
    tensor::Tensor x(tensor::Shape{2, cfg.input_channels, cfg.input_size, cfg.input_size});
    for (std::int64_t i = 0; i < x.numel(); ++i) x.flat(i) = rng.uniform(0.0F, 1.0F);
    for (int rep = 0; rep < 3; ++rep) (void)model->forward(x, true);
    model->begin_activation_calibration();
    (void)model->forward(x, false);
    model->end_activation_calibration();
    model->enable_quantized_activations(2);
    out.build_s = build_timer.seconds();

    const util::WallTimer convert_timer;
    out.model = core::AnnToSnnConverter().convert(model->ir());
    out.convert_ms = convert_timer.millis();
    return out;
}

}  // namespace

BuiltModel build_vgg11() {
    nn::VggConfig cfg;
    cfg.width = 64;
    return build_calibrated<nn::Vgg11>(cfg);
}

BuiltModel build_resnet18() {
    nn::ResNetConfig cfg;
    cfg.width = 64;
    return build_calibrated<nn::ResNet18>(cfg);
}

BuiltModel build_dvs_model() {
    BuiltModel out;
    const util::WallTimer timer;
    util::Rng rng(2024);
    snn::SnnModel& model = out.model;
    model.name = "dvs-stream";
    model.input_channels = 2;
    model.input_h = kSensorSize;
    model.input_w = kSensorSize;

    const auto fill = [&rng](std::vector<std::int8_t>& weights, int lo, int hi) {
        for (auto& w : weights) w = static_cast<std::int8_t>(rng.integer(lo, hi));
    };
    const auto coeffs = [&rng](snn::Branch& b, std::int64_t channels) {
        b.gain.resize(static_cast<std::size_t>(channels));
        b.bias.resize(static_cast<std::size_t>(channels));
        for (auto& g : b.gain) g = static_cast<std::int16_t>(rng.integer(50, 2000));
        for (auto& h : b.bias) h = static_cast<std::int16_t>(rng.integer(-100, 100));
    };
    const auto conv = [&](const char* label, int input, std::int64_t ic, std::int64_t oc,
                          std::int64_t stride, std::int64_t in_size) {
        snn::SnnLayer layer;
        layer.op = snn::LayerOp::kConv;
        layer.label = label;
        layer.input = input;
        layer.main.in_channels = ic;
        layer.main.out_channels = oc;
        layer.main.kernel = 3;
        layer.main.stride = stride;
        layer.main.padding = 1;
        layer.main.weights.resize(static_cast<std::size_t>(ic * oc * 9));
        fill(layer.main.weights, -127, 127);
        coeffs(layer.main, oc);
        layer.in_h = in_size;
        layer.in_w = in_size;
        layer.out_channels = oc;
        layer.out_h = in_size / stride;
        layer.out_w = in_size / stride;
        model.layers.push_back(std::move(layer));
    };
    conv("conv0", -1, 2, 8, 1, kSensorSize);
    conv("conv1", 0, 8, 16, 2, kSensorSize);

    snn::SnnLayer fc;
    fc.op = snn::LayerOp::kLinear;
    fc.label = "fc";
    fc.input = 1;
    fc.spiking = false;
    fc.main.in_features = 16 * (kSensorSize / 2) * (kSensorSize / 2);
    fc.main.out_features = 10;
    fc.main.weights.resize(static_cast<std::size_t>(fc.main.in_features * 10));
    fill(fc.main.weights, -64, 64);
    fc.main.gain.assign(10, 256);
    fc.main.bias.assign(10, 0);
    fc.out_channels = 10;
    model.layers.push_back(std::move(fc));
    model.classes = 10;
    model.validate();
    out.build_s = timer.seconds();
    return out;
}

std::vector<tensor::Tensor> make_images(std::uint64_t seed, std::size_t count) {
    util::Rng rng(util::mix_seed(seed, 0x1A6E));
    std::vector<tensor::Tensor> images;
    for (std::size_t n = 0; n < count; ++n) {
        tensor::Tensor img(tensor::Shape{1, 3, 32, 32});
        for (std::int64_t i = 0; i < img.numel(); ++i) img.flat(i) = rng.uniform(0.0F, 1.0F);
        images.push_back(std::move(img));
    }
    return images;
}

std::vector<DvsStream> make_streams(std::uint64_t seed, std::size_t count) {
    std::vector<DvsStream> streams;
    const std::int64_t steps = kWindowsPerStream * kWindowSteps;
    for (std::size_t s = 0; s < count; ++s) {
        data::EventSceneConfig cfg;
        cfg.size = kSensorSize;
        cfg.timesteps = steps;
        cfg.objects = 1;
        cfg.event_rate = 0.5F;
        cfg.noise_rate = 0.001F;
        cfg.seed = util::mix_seed(seed, 0xD5 + s);
        const auto events = data::make_event_scene(cfg);
        DvsStream stream;
        for (const auto& frames :
             data::events_to_windows(events, cfg.size, steps, kWindowSteps)) {
            stream.windows.push_back(snn::frames_to_train(frames));
        }
        streams.push_back(std::move(stream));
    }
    return streams;
}

}  // namespace perfbench
