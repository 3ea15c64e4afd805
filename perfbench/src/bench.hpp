// Shared pieces of the serving benchmark: the clock, the in-memory
// Chrome trace recorder, and per-stage accumulators.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "snn/model.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double micros(Clock::time_point begin, Clock::time_point end) {
    return std::chrono::duration<double, std::micro>(end - begin).count();
}

/// Stage key of a layer: `s<H>` for a conv layer with an H x H output
/// map, `fc` for a linear layer.
[[nodiscard]] std::string stage_of(const sia::snn::SnnLayer& layer);

/// Spans kept in memory and written out as Chrome trace-event JSON
/// (open in Perfetto or chrome://tracing). Every span carries the id of
/// the request it belongs to, so the spans of one request share an id.
/// A disabled tracer records nothing; past kMaxEvents spans it counts
/// the rest as dropped, which bounds memory and file size on the
/// sub-millisecond workloads.
class Tracer {
public:
    static constexpr std::size_t kMaxEvents = 200'000;

    explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Record a complete span on track `track` (one Chrome "thread").
    void span(const std::string& name, const std::string& category,
              Clock::time_point begin, Clock::time_point end, std::int64_t request_id,
              const std::string& track);

    /// Write every recorded span; returns false when the file cannot be
    /// written.
    [[nodiscard]] bool write(const std::string& path) const;

private:
    struct Event {
        std::string name;
        std::string category;
        double ts_us = 0.0;
        double dur_us = 0.0;
        std::int64_t id = 0;
        int tid = 0;
    };

    bool enabled_;
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Event> events_;
    std::size_t dropped_ = 0;
    std::map<std::string, int> tracks_;
};

/// Microseconds (or cycles) per stage key, in first-seen order.
class StageTotals {
public:
    void add(const std::string& stage, double value);
    [[nodiscard]] double get(const std::string& stage) const;
    [[nodiscard]] const std::vector<std::string>& stages() const noexcept { return order_; }
    void scale(double factor);

private:
    std::vector<std::string> order_;
    std::map<std::string, double> values_;
};

}  // namespace perfbench
