#include "replay.hpp"

#include <algorithm>
#include <utility>

#include "snn/compute.hpp"
#include "snn/engine.hpp"
#include "snn/layer_state.hpp"

namespace perfbench {

namespace {

using namespace sia;

/// Same rule as FunctionalEngine's adaptive dispatch at the engine's
/// default threshold: scatter strictly below that input density.
bool adaptive_picks_scatter(const snn::SpikeMap& in) {
    return in.size() > 0 && static_cast<double>(in.count()) <
                                snn::EngineConfig{}.scatter_density_threshold *
                                    static_cast<double>(in.size());
}

/// Times both psum forms of one branch into `accum` (each clears it
/// first), the order set by `dense_first` so that neither form always
/// runs on the other's warm caches; checks they agree and books the
/// times under `stage`, the form the adaptive dispatcher picks under
/// picked_us and the other one under other_us.
template <typename Dense, typename Scatter>
void replay_psum(Dense&& dense, Scatter&& scatter, bool dense_first, const snn::SpikeMap& in,
                 std::span<std::int32_t> accum, const std::string& stage, KernelReplay& out,
                 Tracer& tracer, std::int64_t id) {
    Clock::time_point t0[2];  // [0] dense, [1] scatter
    Clock::time_point t1[2];
    std::vector<std::int32_t> first;
    for (int k = 0; k < 2; ++k) {
        const bool run_dense = (k == 0) == dense_first;
        const int form = run_dense ? 0 : 1;
        t0[form] = Clock::now();
        if (run_dense) {
            dense();
        } else {
            scatter();
        }
        t1[form] = Clock::now();
        if (k == 0) first.assign(accum.begin(), accum.end());
    }
    if (!std::equal(accum.begin(), accum.end(), first.begin()) && out.mismatch.empty()) {
        out.mismatch = "dense and scatter psum differ at stage " + stage;
    }
    const double dense_us = micros(t0[0], t1[0]);
    const double scatter_us = micros(t0[1], t1[1]);
    out.psum_dense_us.add(stage, dense_us);
    out.psum_scatter_us.add(stage, scatter_us);
    const bool scatter_picked = adaptive_picks_scatter(in);
    out.picked_us.add(stage, scatter_picked ? scatter_us : dense_us);
    out.other_us.add(stage, scatter_picked ? dense_us : scatter_us);
    tracer.span("psum_dense." + stage, "kernel", t0[0], t1[0], id, "replay");
    tracer.span("psum_scatter." + stage, "kernel", t0[1], t1[1], id, "replay");
}

/// Conv branch instance of replay_psum.
void replay_conv_psum(const snn::Branch& b, const std::vector<std::int8_t>& wt,
                      const snn::SpikeMap& in, std::int64_t oh, std::int64_t ow,
                      std::span<std::int32_t> accum, bool dense_first, const std::string& stage,
                      KernelReplay& out, Tracer& tracer, std::int64_t id) {
    replay_psum([&] { snn::compute::conv_psum(b, wt, in, oh, ow, accum); },
                [&] { snn::compute::conv_psum_scatter(b, wt, in, oh, ow, accum); }, dense_first,
                in, accum, stage, out, tracer, id);
}

}  // namespace

KernelReplay replay_kernels(const snn::SnnModel& model, const snn::SpikeTrain& train,
                            Tracer& tracer, std::int64_t id) {
    KernelReplay out;
    const std::size_t layers = model.layers.size();

    // Record: every layer's output spikes after every step.
    snn::EngineConfig cfg;
    cfg.record_readout_history = false;
    snn::FunctionalEngine engine(model, cfg);
    engine.reset();
    std::vector<std::vector<snn::SpikeMap>> recorded(train.size());
    double step_total = 0.0;
    for (std::size_t t = 0; t < train.size(); ++t) {
        const auto t0 = Clock::now();
        engine.step(train[t]);
        const auto t1 = Clock::now();
        step_total += micros(t0, t1);
        tracer.span("engine.step", "engine", t0, t1, id, "replay");
        for (std::size_t i = 0; i < layers; ++i) recorded[t].push_back(engine.layer_spikes(i));
    }
    out.step_us = train.empty() ? 0.0 : step_total / static_cast<double>(train.size());

    // Replay with private banks.
    std::vector<snn::LayerState> state(layers);
    std::vector<std::vector<std::int8_t>> main_wt(layers);
    std::vector<std::vector<std::int8_t>> skip_wt(layers);
    for (std::size_t i = 0; i < layers; ++i) {
        const snn::SnnLayer& layer = model.layers[i];
        state[i].init(layer);
        state[i].reset_membrane(layer.spiking ? layer.initial_potential : std::int16_t{0});
        if (layer.op == snn::LayerOp::kConv) {
            main_wt[i] = snn::compute::transpose_conv(layer.main);
            if (layer.has_skip() && !layer.skip_is_identity) {
                skip_wt[i] = snn::compute::transpose_conv(layer.skip);
            }
        } else {
            main_wt[i] = snn::compute::transpose_linear(layer.main);
        }
    }
    std::vector<std::int64_t> readout(static_cast<std::size_t>(model.classes), 0);
    for (std::size_t t = 0; t < train.size(); ++t) {
        const auto source = [&](int src) -> const snn::SpikeMap& {
            return src == -1 ? train[t] : recorded[t][static_cast<std::size_t>(src)];
        };
        for (std::size_t i = 0; i < layers; ++i) {
            const snn::SnnLayer& layer = model.layers[i];
            snn::LayerState& st = state[i];
            const std::string stage = stage_of(layer);
            const snn::SpikeMap& in = source(layer.input);
            out.in_spikes.add(stage, static_cast<double>(in.count()));
            out.in_sites.add(stage, static_cast<double>(in.size()));
            out.out_spikes.add(stage, static_cast<double>(recorded[t][i].count()));
            out.out_sites.add(stage, static_cast<double>(layer.neurons()));

            // Alternate which psum form is timed first, step by step.
            const bool dense_first = t % 2 == 0;
            if (layer.op == snn::LayerOp::kConv) {
                replay_conv_psum(layer.main, main_wt[i], in, layer.out_h, layer.out_w,
                                 st.accum(), dense_first, stage, out, tracer, id);
            } else {
                replay_psum([&] { snn::compute::linear_psum(layer.main, main_wt[i], in, st.accum()); },
                            [&] {
                                snn::compute::linear_psum_scatter(layer.main, main_wt[i], in,
                                                                  st.accum());
                            },
                            dense_first, in, st.accum(), stage, out, tracer, id);
            }

            if (!layer.spiking) {
                const auto t0 = Clock::now();
                const std::int32_t* psum = st.accum_data();
                for (std::int64_t f = 0; f < layer.out_channels; ++f) {
                    const auto fs = static_cast<std::size_t>(f);
                    readout[fs] += snn::compute::aggregate(psum[f], layer.main.gain[fs],
                                                           layer.main.bias[fs],
                                                           layer.main.gain_shift);
                }
                const auto t1 = Clock::now();
                out.fire_us.add(stage, micros(t0, t1));
                tracer.span("fire." + stage, "kernel", t0, t1, id, "replay");
                continue;
            }

            const bool conv_skip = layer.has_skip() && !layer.skip_is_identity;
            const snn::SpikeMap* skip_spikes =
                layer.has_skip() ? &source(layer.skip_src) : nullptr;
            if (conv_skip) {
                replay_conv_psum(layer.skip, skip_wt[i], *skip_spikes, layer.out_h,
                                 layer.out_w, st.skip_accum(), dense_first, stage, out, tracer,
                                 id);
            }
            if (st.interleaved) {
                const auto t0 = Clock::now();
                snn::compute::transpose_hwc_to_chw(st.psum_hwc.data(), st.psum.data(),
                                                   st.channels, st.plane);
                if (conv_skip) {
                    snn::compute::transpose_hwc_to_chw(st.skip_psum_hwc.data(),
                                                       st.skip_psum.data(), st.channels,
                                                       st.plane);
                }
                const auto t1 = Clock::now();
                out.transpose_us.add(stage, micros(t0, t1));
                tracer.span("transpose." + stage, "kernel", t0, t1, id, "replay");
            }

            snn::compute::FireArgs args;
            args.psum = st.psum.data();
            args.gain = st.gain.data();
            args.bias = st.bias.data();
            args.channel_gain = layer.main.gain.data();
            args.channel_bias = layer.main.bias.data();
            args.plane = st.plane;
            args.gain_shift = layer.main.gain_shift;
            if (conv_skip) {
                args.skip_psum = st.skip_psum.data();
                args.skip_gain = st.skip_gain.data();
                args.skip_bias = st.skip_bias.data();
                args.skip_channel_gain = layer.skip.gain.data();
                args.skip_channel_bias = layer.skip.bias.data();
                args.skip_gain_shift = layer.skip.gain_shift;
            } else if (skip_spikes != nullptr) {
                args.skip_words = skip_spikes->raw().data();
                args.identity_charge = layer.identity_skip.charge;
            }
            args.membrane = st.membrane.data();
            args.threshold = layer.threshold;
            args.reset = layer.reset;
            args.leak_shift = layer.leak_shift;
            args.neurons = st.neurons;

            snn::SpikeMap fired(layer.out_channels, layer.out_h, layer.out_w);
            const auto t0 = Clock::now();
            if (layer.neuron == snn::NeuronKind::kLif) {
                snn::compute::aggregate_fire_lif(args, fired);
            } else {
                snn::compute::aggregate_fire_dense(args, fired);
            }
            const auto t1 = Clock::now();
            out.fire_us.add(stage, micros(t0, t1));
            tracer.span("fire." + stage, "kernel", t0, t1, id, "replay");
            if (!(fired == recorded[t][i]) && out.mismatch.empty()) {
                out.mismatch = "replayed spikes differ from FunctionalEngine::layer_spikes at layer " +
                           std::to_string(i) + " step " + std::to_string(t);
            }
        }
    }
    if (readout != engine.readout() && out.mismatch.empty()) {
        out.mismatch = "replayed readout differs from the engine's";
    }
    return out;
}

std::int64_t SiaReplay::total_cycles() const noexcept {
    std::int64_t total = 0;
    for (const auto& s : layer_stats) total += s.total();
    return total;
}

SiaReplay replay_sia(sim::Sia& sia, const snn::SnnModel& model,
                     const snn::SpikeTrain& window, std::int64_t steps_used,
                     const snn::ExitCriterion* exit, snn::SessionState* session,
                     Tracer& tracer, std::int64_t id) {
    const std::size_t layers = model.layers.size();
    const auto classes = static_cast<std::size_t>(model.classes);
    SiaReplay out;
    out.layer_stats.assign(layers, sim::LayerCycleStats{});
    out.host_us.assign(layers, 0.0);
    if (session != nullptr) sia.prepare_session(*session);

    const bool armed = exit != nullptr && exit->enabled();
    std::int64_t done = 0;
    while (done < steps_used) {
        const std::int64_t end =
            armed ? std::min(steps_used, exit->next_eval_step(done)) : steps_used;
        const snn::SpikeTrain segment(window.begin() + done, window.begin() + end);
        sim::SiaRunResult res;
        res.timesteps = end - done;
        res.steps_offered = res.timesteps;
        res.logits_per_step.assign(segment.size(), std::vector<std::int64_t>(classes, 0));
        res.layer_stats.assign(layers, sim::LayerCycleStats{});
        res.spike_counts.assign(layers, 0);
        std::vector<snn::SpikeTrain> outs(layers);
        for (std::size_t li = 0; li < layers; ++li) {
            const auto t0 = Clock::now();
            sia.run_stage(li, li + 1, segment, outs, res, session);
            const auto t1 = Clock::now();
            out.host_us[li] += micros(t0, t1);
            tracer.span("sia.run_stage." + stage_of(model.layers[li]), "sia", t0, t1, id,
                        "replay");
        }
        for (std::size_t li = 0; li < layers; ++li) out.layer_stats[li] += res.layer_stats[li];
        if (session != nullptr) {
            session->initialized = true;
            out.readout = session->readout;
        } else {
            out.readout = res.logits_per_step.back();
        }
        ++out.segments;
        done = end;
    }
    return out;
}

double time_session_us(const snn::SnnModel& model, snn::SessionState session, int reps) {
    snn::EngineConfig cfg;
    cfg.record_readout_history = false;
    snn::FunctionalEngine engine(model, cfg);
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        engine.restore_session(session);
        engine.save_session(session);
        samples.push_back(micros(t0, Clock::now()));
    }
    std::nth_element(samples.begin(), samples.begin() + reps / 2, samples.end());
    return samples[static_cast<std::size_t>(reps / 2)];
}

}  // namespace perfbench
