// Plain integer reference of the documented fixed-point
// integrate-and-fire semantics (snn/model.hpp, snn/compute.hpp docs),
// written from the documentation alone: it calls neither snn::compute
// nor either engine, keeps its own dense byte spike maps, and
// saturates through its own int64 helpers. Served logits are checked
// against it.
//
// Per timestep, layers run in index order. For every output neuron:
//   psum  = exact sum of the weights under the set input bits
//   m     = clamp16(clamp16(round((clamp16(psum) * G) >> shift)) + H)
//   skip  : m = clamp16(m + skip-branch m)         (1x1 downsample)
//           m = clamp16(m + charge) if source set  (identity)
//   LIF   : u = clamp16(u - (u >> leak))
//   u     = clamp16(u + m); spike iff u >= theta;
//           on spike u = clamp16(u - theta) (subtract) or 0 (zero reset)
// A readout (non-spiking) layer adds m to its int64 logits instead.
#pragma once

#include <cstdint>
#include <vector>

#include "snn/model.hpp"
#include "snn/spike.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

using Bits = std::vector<std::uint8_t>;  ///< dense CHW spike map, 0 or 1

class ReferenceNet {
public:
    explicit ReferenceNet(const sia::snn::SnnModel& model);

    /// Membranes to their initial potential, logits to zero.
    void reset();
    /// One timestep over a dense CHW input map.
    void step(const Bits& input);
    [[nodiscard]] const std::vector<std::int64_t>& readout() const noexcept {
        return readout_;
    }

private:
    void conv_psum(const sia::snn::Branch& b, const std::vector<std::int8_t>& wt,
                   const Bits& in, std::int64_t in_h, std::int64_t in_w,
                   std::int64_t out_h, std::int64_t out_w, std::vector<std::int64_t>& psum);

    const sia::snn::SnnModel& model_;
    std::vector<std::vector<std::int8_t>> main_wt_;  ///< [IC][k][k][OC] / [D][F]
    std::vector<std::vector<std::int8_t>> skip_wt_;
    std::vector<std::vector<std::int64_t>> membrane_;
    std::vector<Bits> spikes_;
    std::vector<std::int64_t> readout_;
    std::vector<std::int64_t> psum_;
    std::vector<std::int64_t> skip_psum_;
};

/// Thermometer code of an image [1, C, H, W]: pixel v (clamped to
/// [0, 1]) emits n = round(v * T) spikes, at the steps t where
/// floor((t + 1) * n / T) > floor(t * n / T).
[[nodiscard]] std::vector<Bits> reference_thermometer(const sia::tensor::Tensor& image,
                                                      std::int64_t timesteps);

[[nodiscard]] Bits unpack(const sia::snn::SpikeMap& map);

/// Margin rule of snn::ExitCriterion, replayed over a window's full
/// readout history (absolute readouts after steps 1..n). Evaluation
/// points are steps s >= min_steps with (s - min_steps) % interval == 0;
/// at each, the top-1 minus top-2 of (readout - baseline) must reach
/// `margin`, and an exact top-2 tie restarts the streak. Returns the
/// first evaluation step at which the rule has held `hysteresis`
/// consecutive times, or 0 when it never does.
[[nodiscard]] std::int64_t margin_exit_step(
    const std::vector<std::vector<std::int64_t>>& history,
    const std::vector<std::int64_t>& baseline, std::int64_t margin,
    std::int64_t min_steps, std::int64_t hysteresis, std::int64_t interval);

}  // namespace perfbench
