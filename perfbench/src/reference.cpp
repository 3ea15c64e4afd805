#include "reference.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

using namespace sia;

std::int64_t clamp16(std::int64_t v) { return std::clamp<std::int64_t>(v, -32768, 32767); }

std::int64_t aggregate(std::int64_t psum, std::int64_t gain, std::int64_t bias, int shift) {
    std::int64_t scaled = clamp16(psum) * gain;
    if (shift > 0) scaled = (scaled + (std::int64_t{1} << (shift - 1))) >> shift;
    return clamp16(clamp16(scaled) + bias);
}

/// [OC][IC][k][k] -> [IC][k][k][OC], so a set input bit adds one
/// contiguous row of output-channel weights.
std::vector<std::int8_t> conv_rows(const snn::Branch& b) {
    const std::int64_t kk = b.kernel * b.kernel;
    std::vector<std::int8_t> out(b.weights.size());
    for (std::int64_t o = 0; o < b.out_channels; ++o) {
        for (std::int64_t r = 0; r < b.in_channels * kk; ++r) {
            out[static_cast<std::size_t>(r * b.out_channels + o)] =
                b.weights[static_cast<std::size_t>(o * b.in_channels * kk + r)];
        }
    }
    return out;
}

std::vector<std::int8_t> linear_rows(const snn::Branch& b) {
    std::vector<std::int8_t> out(b.weights.size());
    for (std::int64_t f = 0; f < b.out_features; ++f) {
        for (std::int64_t d = 0; d < b.in_features; ++d) {
            out[static_cast<std::size_t>(d * b.out_features + f)] =
                b.weights[static_cast<std::size_t>(f * b.in_features + d)];
        }
    }
    return out;
}

}  // namespace

ReferenceNet::ReferenceNet(const snn::SnnModel& model) : model_(model) {
    const std::size_t n = model.layers.size();
    main_wt_.resize(n);
    skip_wt_.resize(n);
    membrane_.resize(n);
    spikes_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const snn::SnnLayer& layer = model.layers[i];
        if (layer.op == snn::LayerOp::kConv) {
            main_wt_[i] = conv_rows(layer.main);
            if (layer.has_skip() && !layer.skip_is_identity) {
                skip_wt_[i] = conv_rows(layer.skip);
            }
        } else {
            main_wt_[i] = linear_rows(layer.main);
        }
        membrane_[i].assign(static_cast<std::size_t>(layer.neurons()), 0);
        spikes_[i].assign(static_cast<std::size_t>(layer.neurons()), 0);
    }
    readout_.assign(static_cast<std::size_t>(model.classes), 0);
    reset();
}

void ReferenceNet::reset() {
    for (std::size_t i = 0; i < model_.layers.size(); ++i) {
        const snn::SnnLayer& layer = model_.layers[i];
        std::fill(membrane_[i].begin(), membrane_[i].end(),
                  layer.spiking ? layer.initial_potential : 0);
        std::fill(spikes_[i].begin(), spikes_[i].end(), 0);
    }
    std::fill(readout_.begin(), readout_.end(), 0);
}

void ReferenceNet::conv_psum(const snn::Branch& b, const std::vector<std::int8_t>& wt,
                             const Bits& in, std::int64_t in_h, std::int64_t in_w,
                             std::int64_t out_h, std::int64_t out_w,
                             std::vector<std::int64_t>& psum) {
    // HWC accumulation: psum[(y * out_w + x) * OC + o].
    const std::int64_t oc = b.out_channels;
    psum.assign(static_cast<std::size_t>(out_h * out_w * oc), 0);
    for (std::int64_t ic = 0; ic < b.in_channels; ++ic) {
        for (std::int64_t iy = 0; iy < in_h; ++iy) {
            for (std::int64_t ix = 0; ix < in_w; ++ix) {
                if (in[static_cast<std::size_t>((ic * in_h + iy) * in_w + ix)] == 0) continue;
                // Output (y, x) reads input (y * s + ky - p, x * s + kx - p).
                for (std::int64_t ky = 0; ky < b.kernel; ++ky) {
                    const std::int64_t ty = iy + b.padding - ky;
                    if (ty < 0 || ty % b.stride != 0 || ty / b.stride >= out_h) continue;
                    for (std::int64_t kx = 0; kx < b.kernel; ++kx) {
                        const std::int64_t tx = ix + b.padding - kx;
                        if (tx < 0 || tx % b.stride != 0 || tx / b.stride >= out_w) continue;
                        const std::int8_t* row =
                            wt.data() + ((ic * b.kernel + ky) * b.kernel + kx) * oc;
                        std::int64_t* acc =
                            psum.data() + ((ty / b.stride) * out_w + tx / b.stride) * oc;
                        for (std::int64_t o = 0; o < oc; ++o) acc[o] += row[o];
                    }
                }
            }
        }
    }
}

void ReferenceNet::step(const Bits& input) {
    for (std::size_t i = 0; i < model_.layers.size(); ++i) {
        const snn::SnnLayer& layer = model_.layers[i];
        const Bits& in =
            layer.input == -1 ? input : spikes_[static_cast<std::size_t>(layer.input)];
        const std::int64_t oc = layer.out_channels;
        const std::int64_t oh = layer.out_h;
        const std::int64_t ow = layer.out_w;

        if (layer.op == snn::LayerOp::kLinear) {
            const snn::Branch& b = layer.main;
            psum_.assign(static_cast<std::size_t>(b.out_features), 0);
            for (std::int64_t d = 0; d < b.in_features; ++d) {
                if (in[static_cast<std::size_t>(d)] == 0) continue;
                const std::int8_t* row = main_wt_[i].data() + d * b.out_features;
                for (std::int64_t f = 0; f < b.out_features; ++f) psum_[static_cast<std::size_t>(f)] += row[f];
            }
        } else {
            const std::int64_t in_h = layer.input == -1 ? model_.input_h : layer.in_h;
            const std::int64_t in_w = layer.input == -1 ? model_.input_w : layer.in_w;
            conv_psum(layer.main, main_wt_[i], in, in_h, in_w, oh, ow, psum_);
        }

        if (!layer.spiking) {
            for (std::int64_t f = 0; f < oc; ++f) {
                const auto fs = static_cast<std::size_t>(f);
                readout_[fs] += aggregate(psum_[fs], layer.main.gain[fs], layer.main.bias[fs],
                                          layer.main.gain_shift);
            }
            continue;
        }

        const Bits* skip = nullptr;
        if (layer.has_skip()) {
            skip = layer.skip_src == -1 ? &input
                                        : &spikes_[static_cast<std::size_t>(layer.skip_src)];
            if (!layer.skip_is_identity) {
                const std::int64_t src_h = layer.skip_src == -1
                                               ? model_.input_h
                                               : model_.layers[static_cast<std::size_t>(layer.skip_src)].out_h;
                const std::int64_t src_w = layer.skip_src == -1
                                               ? model_.input_w
                                               : model_.layers[static_cast<std::size_t>(layer.skip_src)].out_w;
                conv_psum(layer.skip, skip_wt_[i], *skip, src_h, src_w, oh, ow, skip_psum_);
            }
        }

        Bits& out = spikes_[i];
        std::vector<std::int64_t>& mem = membrane_[i];
        const bool linear = layer.op == snn::LayerOp::kLinear;
        for (std::int64_t o = 0; o < oc; ++o) {
            const auto os = static_cast<std::size_t>(o);
            for (std::int64_t y = 0; y < oh; ++y) {
                for (std::int64_t x = 0; x < ow; ++x) {
                    const auto chw = static_cast<std::size_t>((o * oh + y) * ow + x);
                    const auto hwc =
                        linear ? chw : static_cast<std::size_t>((y * ow + x) * oc + o);
                    std::int64_t m = aggregate(psum_[hwc], layer.main.gain[os],
                                               layer.main.bias[os], layer.main.gain_shift);
                    if (skip != nullptr && !layer.skip_is_identity) {
                        m = clamp16(m + aggregate(skip_psum_[hwc], layer.skip.gain[os],
                                                  layer.skip.bias[os], layer.skip.gain_shift));
                    } else if (skip != nullptr && (*skip)[chw] != 0) {
                        m = clamp16(m + layer.identity_skip.charge);
                    }
                    std::int64_t u = mem[chw];
                    if (layer.neuron == snn::NeuronKind::kLif) {
                        u = clamp16(u - (u >> layer.leak_shift));
                    }
                    u = clamp16(u + m);
                    const bool fire = u >= layer.threshold;
                    if (fire) {
                        u = layer.reset == snn::ResetMode::kSubtract
                                ? clamp16(u - layer.threshold)
                                : 0;
                    }
                    mem[chw] = u;
                    out[chw] = fire ? 1 : 0;
                }
            }
        }
    }
}

std::vector<Bits> reference_thermometer(const tensor::Tensor& image, std::int64_t timesteps) {
    if (image.rank() != 4 || image.dim(0) != 1) {
        throw std::invalid_argument("reference_thermometer: expected [1, C, H, W]");
    }
    const std::int64_t pixels = image.dim(1) * image.dim(2) * image.dim(3);
    std::vector<Bits> frames(static_cast<std::size_t>(timesteps),
                             Bits(static_cast<std::size_t>(pixels), 0));
    for (std::int64_t i = 0; i < pixels; ++i) {
        const double v = std::clamp(static_cast<double>(image.flat(i)), 0.0, 1.0);
        const auto n = static_cast<std::int64_t>(std::lround(v * static_cast<double>(timesteps)));
        for (std::int64_t t = 0; t < timesteps; ++t) {
            if ((t + 1) * n / timesteps > t * n / timesteps) {
                frames[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)] = 1;
            }
        }
    }
    return frames;
}

Bits unpack(const snn::SpikeMap& map) {
    Bits out(static_cast<std::size_t>(map.size()), 0);
    for (std::int64_t i = 0; i < map.size(); ++i) out[static_cast<std::size_t>(i)] = map.get_flat(i) ? 1 : 0;
    return out;
}

std::int64_t margin_exit_step(const std::vector<std::vector<std::int64_t>>& history,
                              const std::vector<std::int64_t>& baseline, std::int64_t margin,
                              std::int64_t min_steps, std::int64_t hysteresis,
                              std::int64_t interval) {
    std::int64_t streak = 0;
    for (std::size_t k = 0; k < history.size(); ++k) {
        const auto s = static_cast<std::int64_t>(k) + 1;
        if (s < min_steps || (s - min_steps) % interval != 0) continue;
        std::vector<std::int64_t> delta(history[k].size());
        for (std::size_t j = 0; j < delta.size(); ++j) delta[j] = history[k][j] - baseline[j];
        std::sort(delta.begin(), delta.end(), std::greater<>());
        const std::int64_t lead = delta.size() < 2 ? 0 : delta[0] - delta[1];
        streak = lead > 0 && lead >= margin ? streak + 1 : 0;
        if (streak >= hysteresis) return s;
    }
    return 0;
}

}  // namespace perfbench
