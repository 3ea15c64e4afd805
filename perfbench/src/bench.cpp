#include "bench.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

std::string stage_of(const sia::snn::SnnLayer& layer) {
    if (layer.op == sia::snn::LayerOp::kLinear) return "fc";
    return "s" + std::to_string(layer.out_h);
}

void Tracer::span(const std::string& name, const std::string& category,
                  Clock::time_point begin, Clock::time_point end, std::int64_t request_id,
                  const std::string& track) {
    if (!enabled_) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (events_.size() >= kMaxEvents) {
        ++dropped_;
        return;
    }
    const auto [it, inserted] =
        tracks_.emplace(track, static_cast<int>(tracks_.size()) + 1);
    (void)inserted;
    events_.push_back(Event{name, category, micros(origin_, begin), micros(begin, end),
                            request_id, it->second});
}

bool Tracer::write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const std::lock_guard<std::mutex> lock(mutex_);
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":" << dropped_
        << "},\"traceEvents\":[\n";
    bool first = true;
    for (const auto& [track, tid] : tracks_) {
        out << (first ? "" : ",\n")
            << R"({"ph":"M","name":"thread_name","pid":1,"tid":)" << tid
            << R"(,"args":{"name":")" << track << "\"}}";
        first = false;
    }
    char buf[128];
    for (const Event& e : events_) {
        std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f", e.ts_us, e.dur_us);
        out << (first ? "" : ",\n") << R"({"ph":"X","pid":1,"tid":)" << e.tid
            << R"(,"name":")" << e.name << R"(","cat":")" << e.category
            << R"(","ts":)" << buf << R"(,"args":{"request":)" << e.id << "}}";
        first = false;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

void StageTotals::add(const std::string& stage, double value) {
    const auto [it, inserted] = values_.emplace(stage, 0.0);
    if (inserted) order_.push_back(stage);
    it->second += value;
}

double StageTotals::get(const std::string& stage) const {
    const auto it = values_.find(stage);
    return it == values_.end() ? 0.0 : it->second;
}

void StageTotals::scale(double factor) {
    for (auto& [stage, value] : values_) value *= factor;
}

}  // namespace perfbench
