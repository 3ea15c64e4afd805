// Layer-by-layer replays that time the public per-layer entry points
// of the engine and the simulator from outside the program, and check
// them against what the served path produced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "sim/sia.hpp"
#include "snn/exit.hpp"
#include "snn/model.hpp"
#include "snn/session.hpp"
#include "snn/spike.hpp"

namespace perfbench {

/// snn::compute kernels replayed on each layer's recorded inputs.
struct KernelReplay {
    StageTotals psum_dense_us;    ///< gather-form psum (main + downsample branch)
    StageTotals psum_scatter_us;  ///< scatter-form psum
    StageTotals transpose_us;     ///< HWC -> CHW bank transpose
    StageTotals fire_us;          ///< fused aggregate + fire (readout: aggregate)
    /// The psum form the adaptive dispatcher picks (input density below
    /// EngineConfig's default threshold -> scatter), summed over every
    /// layer-step, and the other form over the same layer-steps.
    StageTotals picked_us;
    StageTotals other_us;
    /// Reference figures: main-branch input spikes and sites, output
    /// spikes and neuron-steps, per stage.
    StageTotals in_spikes;
    StageTotals in_sites;
    StageTotals out_spikes;
    StageTotals out_sites;
    double step_us = 0.0;  ///< mean FunctionalEngine::step over the train
    std::string mismatch;  ///< empty when every check held
};

/// Run `train` through a FunctionalEngine one step() at a time, recording
/// every layer's output spikes; then replay each layer's psum (both
/// forms), transpose and fire kernels on the recorded inputs, and check
/// that the replayed spikes equal FunctionalEngine::layer_spikes at every
/// layer and step, that both psum forms agree, and that the replayed
/// readout equals the engine's.
[[nodiscard]] KernelReplay replay_kernels(const sia::snn::SnnModel& model,
                                          const sia::snn::SpikeTrain& train, Tracer& tracer,
                                          std::int64_t request_id);

/// Sia::run_stage driven one layer at a time.
struct SiaReplay {
    std::vector<sia::sim::LayerCycleStats> layer_stats;  ///< summed over segments
    std::vector<double> host_us;                         ///< per layer
    std::vector<std::int64_t> readout;                   ///< final logits
    std::int64_t segments = 0;

    [[nodiscard]] std::int64_t total_cycles() const noexcept;
};

/// Replay the first `steps_used` steps of `window` layer by layer. With
/// an armed criterion the steps run as the segmented schedule does, one
/// segment per evaluation point; `session` (null = stateless) is
/// resumed and updated exactly as the served window did.
[[nodiscard]] SiaReplay replay_sia(sia::sim::Sia& sia, const sia::snn::SnnModel& model,
                                   const sia::snn::SpikeTrain& window,
                                   std::int64_t steps_used,
                                   const sia::snn::ExitCriterion* exit,
                                   sia::snn::SessionState* session, Tracer& tracer,
                                   std::int64_t request_id);

/// Median time of FunctionalEngine::restore_session + save_session over
/// `reps` round trips of `session`.
[[nodiscard]] double time_session_us(const sia::snn::SnnModel& model,
                                     sia::snn::SessionState session, int reps);

}  // namespace perfbench
