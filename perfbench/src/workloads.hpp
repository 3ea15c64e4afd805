// Models and inputs of the three workloads. Models are fixed (their
// weights never depend on --seed); every input is derived from --seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "snn/model.hpp"
#include "snn/spike.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

inline constexpr std::int64_t kTimesteps = 8;  ///< image encodings, T = 8
inline constexpr std::size_t kImagePool = 8;   ///< distinct images per run

inline constexpr std::size_t kSessions = 128;       ///< concurrent DVS sessions
inline constexpr std::size_t kStreams = 128;        ///< distinct DVS streams
inline constexpr std::int64_t kWindowsPerStream = 8;
inline constexpr std::int64_t kWindowSteps = 8;
inline constexpr std::int64_t kSensorSize = 24;

/// Set-up of a full-width model: calibrated random weights, converted.
struct BuiltModel {
    sia::snn::SnnModel model;
    double build_s = 0.0;     ///< ANN build + activation calibration
    double convert_ms = 0.0;  ///< ANN -> SNN conversion
};

/// Full-width VGG-11 / ResNet-18 (width 64, CIFAR geometry), built the
/// way bench/table1_layer_latency builds them.
[[nodiscard]] BuiltModel build_vgg11();
[[nodiscard]] BuiltModel build_resnet18();
/// The 2-channel 24x24 DVS model of bench/stream_latency.
[[nodiscard]] BuiltModel build_dvs_model();

/// `count` images [1, 3, 32, 32] with pixels uniform in [0, 1).
[[nodiscard]] std::vector<sia::tensor::Tensor> make_images(std::uint64_t seed,
                                                           std::size_t count);

/// One DVS stream cut into pre-encoded windows.
struct DvsStream {
    std::vector<sia::snn::SpikeTrain> windows;
};

/// `count` streams of kWindowsPerStream x kWindowSteps steps at about
/// 1% event density per pixel-step (one tracked object plus background
/// noise).
[[nodiscard]] std::vector<DvsStream> make_streams(std::uint64_t seed, std::size_t count);

}  // namespace perfbench
