// End-to-end serving benchmark: one workload through core::Server,
// first on a FunctionalBackend lane and then on a SiaBackend lane, in a
// closed loop for a fixed time each, with every output checked.
//
//   perfbench --workload <vgg11-t8|resnet18-t8|dvs-stream-exit> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// The last line of standard output is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A traced run wraps each backend in a timing decorator,
// replays the engine kernels and the simulator layer by layer, and
// writes its spans as Chrome trace-event JSON. The exit code is 0 only
// when every check held. See perfbench/README.md.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/backend.hpp"
#include "core/compiler.hpp"
#include "core/server.hpp"
#include "reference.hpp"
#include "replay.hpp"
#include "sim/sia.hpp"
#include "snn/encoding.hpp"
#include "snn/engine.hpp"
#include "workloads.hpp"

namespace {

using namespace sia;
using perfbench::Clock;
using perfbench::micros;

const Clock::time_point g_process_start = Clock::now();

// ------------------------------------------------------------ options

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string trace_out;
};

bool parse_options(int argc, char** argv, Options& opt) {
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            opt.workload = value;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end != value.c_str() && *end == '\0';
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
            have_seconds = end != value.c_str() && *end == '\0' && opt.seconds > 0.0;
        } else if (key == "--trace") {
            have_trace = value == "0" || value == "1";
            opt.trace = value == "1";
        } else if (key == "--trace-out") {
            opt.trace_out = value;
        } else {
            return false;
        }
    }
    const bool known = opt.workload == "vgg11-t8" || opt.workload == "resnet18-t8" ||
                       opt.workload == "dvs-stream-exit";
    return argc % 2 == 1 && known && have_seed && have_seconds && have_trace;
}

std::size_t cpu_count() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
    return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Linear-interpolated quantile of exact samples (sorted in place).
double quantile(std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// ----------------------------------------------------- failure ledger

/// First failed check (the run reports correct=false and exits 1).
class Checks {
public:
    void fail(const std::string& what) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (first_.empty()) first_ = what;
        ++count_;
    }
    [[nodiscard]] bool ok() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return count_ == 0;
    }
    [[nodiscard]] std::string first() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return first_ + (count_ > 1 ? " (+" + std::to_string(count_ - 1) + " more)" : "");
    }

private:
    mutable std::mutex mutex_;
    std::string first_;
    std::size_t count_ = 0;
};

// ------------------------------------------------- tracing decorator

/// Backend decorator of the traced run: times every run_span (and, for
/// thermometer requests, the encoding it performs up front so that
/// snn::encode_thermometer gets its own span), keyed by the request id
/// the client pins in Request::rng_stream.
class TracingBackend final : public core::Backend {
public:
    TracingBackend(std::shared_ptr<core::Backend> inner, perfbench::Tracer& tracer,
                   std::string lane)
        : core::Backend(inner->model()), inner_(std::move(inner)), tracer_(tracer),
          lane_(std::move(lane)) {}

    [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }
    void prepare(std::size_t workers) override { inner_->prepare(workers); }
    [[nodiscard]] std::size_t preferred_span(std::size_t n,
                                             std::size_t workers) const noexcept override {
        return inner_->preferred_span(n, workers);
    }
    /// The runner drains the simulator's batch accounting after every
    /// wave; the decorator keeps a running total of what passes through.
    [[nodiscard]] sim::SiaBatchStats take_sim_batch_stats() noexcept override {
        sim::SiaBatchStats s = inner_->take_sim_batch_stats();
        const std::lock_guard<std::mutex> lock(mutex_);
        batch_items_ += static_cast<std::int64_t>(s.batch);
        chunk_passes_ += s.chunk_passes;
        return s;
    }

    void run_span(std::size_t worker, std::span<const core::Request> requests,
                  std::span<core::Response> responses, std::size_t base,
                  std::uint64_t seed) override {
        const std::string track = lane_ + ".worker" + std::to_string(worker);
        const auto begin = Clock::now();
        std::vector<core::Request> encoded(requests.begin(), requests.end());
        std::vector<double> encode_us;
        for (core::Request& r : encoded) {
            if (r.encoding != core::Encoding::kThermometer) continue;
            const auto t0 = Clock::now();
            r.train = snn::encode_thermometer(r.raw_image(), r.timesteps);
            const auto t1 = Clock::now();
            r.encoding = core::Encoding::kPreEncoded;
            r.image = {};
            r.image_view = nullptr;
            encode_us.push_back(micros(t0, t1));
            tracer_.span("encode", "backend", t0, t1, id_of(r), track);
        }
        inner_->run_span(worker, encoded, responses, base, seed);
        const auto end = Clock::now();
        const double span_us = micros(begin, end);
        tracer_.span("run_span", "backend", begin, end, id_of(requests.front()), track);

        const std::lock_guard<std::mutex> lock(mutex_);
        for (const core::Request& r : requests) span_us_[id_of(r)] = span_us;
        per_request_us_.push_back(span_us / static_cast<double>(requests.size()));
        encode_us_.insert(encode_us_.end(), encode_us.begin(), encode_us.end());
    }

    /// Span duration of the span that served request `id` (0 if unseen).
    [[nodiscard]] double span_us(std::int64_t id) const {
        const std::lock_guard<std::mutex> lock(mutex_);
        const auto it = span_us_.find(id);
        return it == span_us_.end() ? 0.0 : it->second;
    }
    [[nodiscard]] std::vector<double> per_request_us() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return per_request_us_;
    }
    [[nodiscard]] std::vector<double> encode_us() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return encode_us_;
    }
    /// Segment passes per simulated request since the last clear().
    [[nodiscard]] double chunk_passes_per_request() const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return batch_items_ > 0 ? static_cast<double>(chunk_passes_) /
                                      static_cast<double>(batch_items_)
                                : 0.0;
    }
    void clear() {
        const std::lock_guard<std::mutex> lock(mutex_);
        per_request_us_.clear();
        encode_us_.clear();
        batch_items_ = 0;
        chunk_passes_ = 0;
    }

private:
    static std::int64_t id_of(const core::Request& r) {
        return static_cast<std::int64_t>(r.rng_stream.value_or(0));
    }

    std::shared_ptr<core::Backend> inner_;
    perfbench::Tracer& tracer_;
    std::string lane_;
    mutable std::mutex mutex_;
    std::map<std::int64_t, double> span_us_;
    std::vector<double> per_request_us_;
    std::vector<double> encode_us_;
    std::int64_t batch_items_ = 0;
    std::int64_t chunk_passes_ = 0;
};

// ------------------------------------------------------------ lanes

/// Timed requests of one lane, kept where the metrics can be computed
/// from exact per-request samples. A lane runs in kBlocks measured
/// blocks that alternate with the other lane's, and every timing metric
/// is the median over blocks of the block's value: a slow spell of the
/// machine (they last seconds to minutes on a shared host) then lands on
/// a few blocks of each lane rather than on the whole of one lane. The
/// buffer is sized and written once, after set-up and before the first
/// block, so the harness's memory does not grow with throughput and is a
/// known constant that peak_rss_mb takes off; a block that fills it ends
/// early.
class SampleLog {
public:
    static constexpr std::size_t kBlocks = 8;
    /// At least 100 measured requests per block, so that every block's
    /// p90 has ten or more samples beyond it.
    static constexpr std::size_t kMinPerBlock = 100;
    /// A block that has not measured kMinPerBlock by its end runs on, up
    /// to this multiple of its nominal length, so that a slow spell
    /// lengthens the run instead of failing it.
    static constexpr double kMaxStretch = 2.5;

    struct Sample {
        std::int64_t id = 0;
        float latency_us = 0.0F;
    };

    /// Room for 20 s of a lane at 25k requests/s (the DVS functional
    /// lane serves about 15k/s on 4 vCPUs).
    static constexpr std::size_t kCapacity = 500'000;
    static constexpr std::size_t kBytes = kCapacity * sizeof(Sample);

    /// Write the whole buffer, so that all of it is resident from here on.
    void allocate() { samples_.assign(kCapacity, Sample{}); }

    /// Open a block [start, start + length), held open past its end (up
    /// to start + kMaxStretch * length) until kMinPerBlock requests are
    /// in. An unmeasured block (warm-up) records nothing.
    void open(Clock::time_point start, Clock::duration length, bool measured) {
        begin_ = start;
        end_ = start + length;
        latest_ = start + std::chrono::duration_cast<Clock::duration>(length * kMaxStretch);
        last_done_ = start;
        measured_ = measured;
        first_ = size();
    }

    /// Whether the block is still open at `t`.
    [[nodiscard]] bool open_at(Clock::time_point t) const {
        return t < end_ || (measured_ && size() - first_ < kMinPerBlock && t < latest_);
    }

    /// Record a request that completed at `done`. Returns false once the
    /// buffer is full.
    bool record(std::int64_t id, Clock::time_point submit, Clock::time_point done) {
        if (!measured_ || !open_at(done)) return true;
        if (next_ >= samples_.size()) return false;
        samples_[next_++] = Sample{id, static_cast<float>(micros(submit, done))};
        last_done_ = std::max(last_done_, done);
        return true;
    }

    /// Close the block. Its rate is taken up to its last measured
    /// completion, which reads a continuous value where the nominal end
    /// would quantize it to whole requests per block.
    void close() {
        if (!measured_) return;
        blocks_.push_back({first_, size(), micros(begin_, last_done_) / 1e6});
    }

    [[nodiscard]] std::size_t size() const { return next_; }
    [[nodiscard]] std::span<const Sample> samples() const { return {samples_.data(), size()}; }
    /// Fewest measured requests in any block.
    [[nodiscard]] std::size_t min_block() const {
        if (blocks_.empty()) return 0;
        std::size_t n = blocks_.front().hi - blocks_.front().lo;
        for (const Block& b : blocks_) n = std::min(n, b.hi - b.lo);
        return n;
    }

    /// Median over blocks of the block's completion rate.
    [[nodiscard]] double rate() const {
        std::vector<double> values;
        for (const Block& b : blocks_) {
            values.push_back(b.seconds > 0.0 ? static_cast<double>(b.hi - b.lo) / b.seconds : 0.0);
        }
        return quantile(values, 0.5);
    }
    /// Median over blocks of the block's latency quantile q, in ms.
    [[nodiscard]] double latency_ms(double q) const {
        std::vector<double> values;
        for (const Block& b : blocks_) {
            std::vector<double> v;
            for (std::size_t i = b.lo; i < b.hi; ++i) v.push_back(samples_[i].latency_us / 1e3);
            values.push_back(quantile(v, q));
        }
        return quantile(values, 0.5);
    }

private:
    struct Block {
        std::size_t lo = 0;
        std::size_t hi = 0;
        double seconds = 0.0;
    };

    std::vector<Sample> samples_;
    std::size_t next_ = 0;
    std::vector<Block> blocks_;
    std::size_t first_ = 0;
    bool measured_ = false;
    Clock::time_point begin_;
    Clock::time_point end_;
    Clock::time_point latest_;
    Clock::time_point last_done_;
};

/// Counters of one closed-loop block on one lane (every request, the
/// warm-up block and each block's tail past its end included).
struct Phase {
    std::size_t completed = 0;
    std::size_t failed = 0;
    double cycles = 0.0;  ///< summed Response::total_cycles (sia lane)
    std::int64_t steps_used = 0;
    std::int64_t steps_offered = 0;
    std::int64_t scatter_steps = 0;
    std::int64_t dense_steps = 0;

    void merge(const Phase& o) {
        completed += o.completed;
        failed += o.failed;
        cycles += o.cycles;
        steps_used += o.steps_used;
        steps_offered += o.steps_offered;
        scatter_steps += o.scatter_steps;
        dense_steps += o.dense_steps;
    }
};

struct Lane {
    std::string name;
    std::shared_ptr<core::Backend> backend;  ///< the served backend
    std::shared_ptr<TracingBackend> traced;  ///< decorator (traced run only)
    std::unique_ptr<core::Server> server;
    SampleLog log;
    std::size_t client_completed = 0;  ///< warm-up + timed, for check (g)
    std::size_t client_failed = 0;
    Phase timed;
    double wave_size = 0.0;
};

/// Expected result of one distinct input, set by the first response.
struct Expected {
    std::optional<std::vector<std::int64_t>> logits;
    std::optional<std::int64_t> cycles;  ///< sia lane
    std::int64_t steps_used = 0;
    snn::ExitReason reason = snn::ExitReason::kNone;
};

/// Thread-safe table of expected results keyed by input.
class ExpectedTable {
public:
    explicit ExpectedTable(std::size_t keys) : entries_(keys) {}

    /// Record (first response) or compare a response for input `key`.
    void observe(std::size_t key, const core::Response& r, bool sia, Checks& checks) {
        const std::lock_guard<std::mutex> lock(mutex_);
        Expected& e = entries_[key];
        if (!e.logits) {
            e.logits = r.logits;
            e.steps_used = r.steps_used;
            e.reason = r.exit_reason;
        } else if (*e.logits != r.logits || e.steps_used != r.steps_used ||
                   e.reason != r.exit_reason) {
            checks.fail("(a) input " + std::to_string(key) +
                        ": logits/steps differ from the functional lane");
        }
        if (sia) {
            if (!e.cycles) {
                e.cycles = r.total_cycles();
            } else if (*e.cycles != r.total_cycles()) {
                checks.fail("sia cycles of input " + std::to_string(key) +
                            " are not deterministic");
            }
        }
    }
    [[nodiscard]] Expected get(std::size_t key) const {
        const std::lock_guard<std::mutex> lock(mutex_);
        return entries_[key];
    }

private:
    mutable std::mutex mutex_;
    std::vector<Expected> entries_;
};

void account(Phase& p, const core::Response& r, bool sia) {
    if (!r.ok()) {
        ++p.failed;
        return;
    }
    ++p.completed;
    p.steps_used += r.steps_used;
    p.steps_offered += r.steps_offered;
    if (sia) p.cycles += static_cast<double>(r.total_cycles());
    for (const auto& d : r.layer_dispatch) {
        p.scatter_steps += d.scatter_steps;
        p.dense_steps += d.dense_steps;
    }
}

std::atomic<std::int64_t> g_next_id{1};

/// One request a closed-loop slot submits next, and the input it is for.
struct Next {
    core::Request request;
    std::size_t key = 0;
};

/// Closed loop over `slots` clients, all driven from this one thread:
/// each slot submits its next request as soon as the previous one
/// resolves. `next(slot, open)` gives a slot's next request, or nothing
/// once the slot is done; `open` is false once the lane's block has
/// closed or its log is full. `check(response)` adds the workload's
/// own checks. One thread for every slot keeps the load generator to a
/// single wake-up per wave: a thread per client put dozens of thread
/// hand-offs on the 4 vCPUs the server's workers run on, and the
/// sub-millisecond DVS lanes then measured the scheduler.
template <typename NextFn, typename CheckFn>
Phase closed_loop(Lane& lane, bool sia, std::size_t slots, NextFn&& next, CheckFn&& check,
                  ExpectedTable& table, perfbench::Tracer& tracer, Checks& checks) {
    struct InFlight {
        std::size_t slot = 0;
        std::size_t key = 0;
        std::int64_t id = 0;
        Clock::time_point t0;
        std::future<core::Response> fut;
    };
    const std::string track = "client." + lane.name;
    Phase phase;
    bool full = false;
    std::vector<InFlight> flight;  // in submission order
    const auto submit = [&](std::size_t slot) {
        std::optional<Next> n = next(slot, !full && lane.log.open_at(Clock::now()));
        if (!n) return;
        const std::int64_t id = g_next_id.fetch_add(1);
        n->request.rng_stream = static_cast<std::uint64_t>(id);
        const auto t0 = Clock::now();
        flight.push_back({slot, n->key, id, t0, lane.server->submit(std::move(n->request))});
    };
    for (std::size_t slot = 0; slot < slots; ++slot) submit(slot);
    std::vector<InFlight> ready;
    while (!flight.empty()) {
        // The oldest request is in the earliest wave; once it resolves,
        // every other request of that wave has resolved too.
        flight.front().fut.wait();
        ready.clear();
        for (auto it = flight.begin(); it != flight.end();) {
            if (it->fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
                ready.push_back(std::move(*it));
                it = flight.erase(it);
            } else {
                ++it;
            }
        }
        const auto t1 = Clock::now();
        for (InFlight& f : ready) {
            const core::Response r = f.fut.get();
            tracer.span("request", "client", f.t0, t1, f.id, track);
            account(phase, r, sia);
            if (r.ok()) {
                if (!lane.log.record(f.id, f.t0, t1)) full = true;
                table.observe(f.key, r, sia, checks);
                check(r);
            }
            submit(f.slot);
        }
    }
    return phase;
}

/// Image lanes: 2 slots per worker over the image pool; request n uses
/// image n mod pool.
Phase image_phase(Lane& lane, bool sia, const std::vector<tensor::Tensor>& images,
                  std::size_t workers, ExpectedTable& table, perfbench::Tracer& tracer,
                  Checks& checks) {
    std::size_t n = 0;
    const auto next = [&](std::size_t, bool open) -> std::optional<Next> {
        if (!open) return std::nullopt;
        const std::size_t key = n++ % images.size();
        return Next{core::Request::view_thermometer(images[key], perfbench::kTimesteps), key};
    };
    const auto check = [&](const core::Response& r) {
        if (r.steps_used != perfbench::kTimesteps) {
            checks.fail("image request integrated " + std::to_string(r.steps_used) +
                        " steps, expected " + std::to_string(perfbench::kTimesteps));
        }
    };
    return closed_loop(lane, sia, 2 * workers, next, check, table, tracer, checks);
}

/// Criterion every DVS window carries: stop once the window's own
/// readout lead (top-1 minus top-2) reaches the margin at two
/// consecutive steps, never before step 2. The margin is set so that
/// about half of the offered steps are integrated (0.47 to 0.52 over
/// seeds 1-10), with exits spread over steps 3 to 8.
snn::ExitCriterion dvs_criterion() {
    snn::ExitCriterion c;
    c.margin = 1536;
    c.min_steps = 2;
    c.hysteresis = 2;
    c.check_interval = 1;
    return c;
}

/// DVS lanes: one slot per session. In round r, slot c replays stream
/// c + kSessions * (r mod kStreams / kSessions) as a fresh session,
/// window by window. Rounds run whole; a slot starts no new round once
/// the block has closed.
Phase stream_phase(Lane& lane, bool sia, const std::vector<perfbench::DvsStream>& streams,
                   ExpectedTable& table, perfbench::Tracer& tracer, Checks& checks,
                   std::atomic<std::int64_t>& session_counter) {
    struct Slot {
        std::size_t round = 0;
        std::size_t stream = 0;
        std::size_t window = 0;
        bool in_round = false;
        std::string session;
    };
    std::vector<Slot> slots(perfbench::kSessions);
    const snn::ExitCriterion criterion = dvs_criterion();
    const auto next = [&](std::size_t c, bool open) -> std::optional<Next> {
        Slot& s = slots[c];
        if (!s.in_round) {
            if (!open) return std::nullopt;
            s.stream = c + perfbench::kSessions *
                               (s.round++ % (streams.size() / perfbench::kSessions));
            s.session = lane.name + "-" + std::to_string(session_counter.fetch_add(1));
            s.window = 0;
            s.in_round = true;
        }
        const auto& windows = streams[s.stream].windows;
        const std::size_t w = s.window++;
        if (s.window == windows.size()) s.in_round = false;
        return Next{core::Request::view_train(windows[w])
                        .with_session(s.session, w + 1 == windows.size())
                        .with_early_exit(criterion),
                    s.stream * windows.size() + w};
    };
    const auto check = [&](const core::Response& r) {
        // (d) steps_used lies in [min_steps, offered].
        if (r.steps_used < criterion.min_steps || r.steps_used > r.steps_offered ||
            r.steps_offered != perfbench::kWindowSteps) {
            checks.fail("(d) window steps_used " + std::to_string(r.steps_used) +
                        " outside [min_steps, offered]");
        }
    };
    return closed_loop(lane, sia, perfbench::kSessions, next, check, table, tracer, checks);
}

// ------------------------------------------------------------ metrics

class Metrics {
public:
    void add(const std::string& name, double value, const std::string& unit) {
        entries_.emplace_back(name, value, unit);
    }
    [[nodiscard]] std::string json() const {
        std::ostringstream out;
        out << "{";
        char buf[64];
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            const auto& [name, value, unit] = entries_[i];
            std::snprintf(buf, sizeof buf, "%.17g", value);
            out << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << buf
                << ", \"unit\": \"" << unit << "\"}";
        }
        out << "}";
        return out.str();
    }

private:
    std::vector<std::tuple<std::string, double, std::string>> entries_;
};

/// Every stage key any workload has; a traced run prints each one (0
/// where the workload has no such stage).
const std::vector<std::string> kStages = {"s32", "s16", "s8", "s4", "s2", "s24", "s12", "fc"};

/// Per-stage median over replay repetitions.
perfbench::StageTotals median_stages(const std::vector<perfbench::StageTotals>& reps) {
    perfbench::StageTotals out;
    for (const std::string& stage : kStages) {
        std::vector<double> v;
        for (const auto& r : reps) v.push_back(r.get(stage));
        out.add(stage, quantile(v, 0.5));
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    if (!parse_options(argc, argv, opt)) {
        std::cerr << "usage: perfbench --workload <vgg11-t8|resnet18-t8|dvs-stream-exit> "
                     "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n";
        return 2;
    }
    const bool dvs = opt.workload == "dvs-stream-exit";
    const std::size_t workers = cpu_count();
    perfbench::Tracer tracer(opt.trace);
    Checks checks;

    // ---------------------------------------------------- set-up (timed)
    perfbench::BuiltModel built = opt.workload == "vgg11-t8"      ? perfbench::build_vgg11()
                                  : opt.workload == "resnet18-t8" ? perfbench::build_resnet18()
                                                                  : perfbench::build_dvs_model();
    const snn::SnnModel& model = built.model;
    const sim::SiaConfig sia_cfg;
    const auto compile_t0 = Clock::now();
    const sim::CompiledProgram program = core::SiaCompiler(sia_cfg).compile(model);
    const double compile_ms = micros(compile_t0, Clock::now()) / 1e3;

    // Inputs are the harness's, not the served system's: their
    // generation time is left out of setup_s.
    const auto inputs_t0 = Clock::now();
    std::vector<tensor::Tensor> images;
    std::vector<perfbench::DvsStream> streams;
    if (dvs) {
        streams = perfbench::make_streams(opt.seed, perfbench::kStreams);
    } else {
        images = perfbench::make_images(opt.seed, perfbench::kImagePool);
    }
    const Clock::duration input_time = Clock::now() - inputs_t0;
    const std::size_t keys = dvs ? streams.size() * perfbench::kWindowsPerStream : images.size();
    ExpectedTable table(keys);
    std::atomic<std::int64_t> session_counter{0};

    core::ServerOptions server_opts;
    server_opts.threads = workers;
    // Image lanes: 2 slots per worker and one request per worker per
    // wave, so a full wave is always queued behind the running one. DVS
    // lanes: eight windows per worker per wave, with the 128 sessions
    // keeping about four waves queued. Shallower queues and narrower
    // waves leave the sub-millisecond windows at the mercy of thread
    // wake-up latency: with two windows per worker the workers sat idle
    // 45% of the time between waves (20% at eight), and slow spells of
    // the host hit those wake-ups hardest.
    server_opts.max_batch = dvs ? 8 * workers : workers;
    server_opts.max_queue = 256;
    server_opts.backpressure = core::BackpressurePolicy::kBlock;

    snn::EngineConfig engine_cfg;
    engine_cfg.record_readout_history = false;
    Lane lanes[2];
    lanes[0].name = "functional";
    lanes[0].backend = std::make_shared<core::FunctionalBackend>(model, engine_cfg);
    lanes[1].name = "sia";
    lanes[1].backend = std::make_shared<core::SiaBackend>(model, sia_cfg);

    const auto warm_t0 = Clock::now();
    for (Lane& lane : lanes) {
        std::shared_ptr<core::Backend> served = lane.backend;
        if (opt.trace) {
            lane.traced = std::make_shared<TracingBackend>(lane.backend, tracer, lane.name);
            served = lane.traced;
        }
        lane.server = std::make_unique<core::Server>(served, server_opts);
        // The first request on each worker: one wave of `workers`
        // stateless requests (engines and simulators are built lazily).
        std::vector<std::future<core::Response>> warm;
        for (std::size_t k = 0; k < workers; ++k) {
            core::Request req =
                dvs ? core::Request::view_train(streams[k % streams.size()].windows[0])
                          .with_early_exit(dvs_criterion())
                    : core::Request::view_thermometer(images[k % images.size()],
                                                      perfbench::kTimesteps);
            req.rng_stream = static_cast<std::uint64_t>(g_next_id.fetch_add(1));
            warm.push_back(lane.server->submit(std::move(req)));
        }
        for (auto& f : warm) {
            const core::Response r = f.get();
            ++(r.ok() ? lane.client_completed : lane.client_failed);
        }
        if (lane.traced) lane.traced->clear();
    }
    const double warm_ms = micros(warm_t0, Clock::now()) / 1e3;
    const double setup_s = micros(g_process_start + input_time, Clock::now()) / 1e6;
    const double setup_rss_mb = peak_rss_mb();

    // ------------------------------------------------------- timed phases
    // One unmeasured warm-up block per lane (the VM's vCPUs take about a
    // second to come up to full speed after idling), then kBlocks measured
    // blocks per lane, the lanes taking turns. The sia lane serves 2 to 6
    // times fewer requests per second than the functional lane, so it
    // gets the larger share of the run.
    constexpr double kWarmSeconds = 1.0;
    constexpr double kSiaShare = 0.6;
    std::size_t batches_before[2];
    for (std::size_t l = 0; l < 2; ++l) {
        lanes[l].log.allocate();
        batches_before[l] = lanes[l].server->stats().batches;
    }
    for (std::size_t block = 0; block <= SampleLog::kBlocks; ++block) {
        const bool measured = block > 0;
        for (std::size_t l = 0; l < 2; ++l) {
            Lane& lane = lanes[l];
            const bool sia = l == 1;
            const double seconds = measured ? opt.seconds * (sia ? kSiaShare : 1.0 - kSiaShare) /
                                                  static_cast<double>(SampleLog::kBlocks)
                                            : kWarmSeconds;
            lane.log.open(Clock::now(),
                          std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds)),
                          measured);
            lane.timed.merge(
                dvs ? stream_phase(lane, sia, streams, table, tracer, checks, session_counter)
                    : image_phase(lane, sia, images, workers, table, tracer, checks));
            lane.log.close();
        }
    }
    for (std::size_t l = 0; l < 2; ++l) {
        Lane& lane = lanes[l];
        const std::size_t batches = lane.server->stats().batches - batches_before[l];
        lane.wave_size = batches > 0 ? static_cast<double>(lane.timed.completed +
                                                           lane.timed.failed) /
                                           static_cast<double>(batches)
                                     : 0.0;
        lane.client_completed += lane.timed.completed;
        lane.client_failed += lane.timed.failed;
        // (g) the client's ledger equals the server's.
        lane.server->shutdown();
        const core::ServerStats stats = lane.server->stats();
        if (stats.completed != lane.client_completed || stats.failed != lane.client_failed) {
            checks.fail("(g) " + lane.name + " lane: client counted " +
                        std::to_string(lane.client_completed) + " completed, server " +
                        std::to_string(stats.completed));
        }
    }
    // Peak of the served system up to the end of the lanes: the sample
    // buffers were resident throughout the lanes, so they come off the
    // peak taken there; a peak reached in set-up, before they existed,
    // stands as it is. Read before the checks build their own models.
    const double served_rss_mb =
        std::max(setup_rss_mb, peak_rss_mb() - 2.0 * SampleLog::kBytes / (1024.0 * 1024.0));

    // -------------------------------------------------- output checks
    const auto checks_t0 = Clock::now();
    sim::Sia replay_sia_instance(sia_cfg, model, program);
    std::vector<perfbench::SiaReplay> sia_replays;
    std::int64_t sia_replay_requests = 0;
    snn::SpikeTrain kernel_train;  // input of the kernel replay
    std::int64_t kernel_requests = 1;
    snn::SessionState session_sample;
    double exit_share_check = 0.0;

    if (!dvs) {
        // Sample: pool images 0 and 1 (every request of an image shares
        // its logits, by check (a)).
        for (std::size_t key = 0; key < 2; ++key) {
            const std::string what = "image " + std::to_string(key);
            const Expected e = table.get(key);
            const snn::SpikeTrain train =
                snn::encode_thermometer(images[key], perfbench::kTimesteps);
            // (b) plain integer reference.
            perfbench::ReferenceNet ref(model);
            for (const perfbench::Bits& frame :
                 perfbench::reference_thermometer(images[key], perfbench::kTimesteps)) {
                ref.step(frame);
            }
            if (!e.logits || ref.readout() != *e.logits) {
                checks.fail("(b) served logits of " + what + " differ from the integer reference");
            }
            // (c) layer-at-a-time Sia replay.
            perfbench::SiaReplay rep =
                perfbench::replay_sia(replay_sia_instance, model, train, perfbench::kTimesteps,
                                      nullptr, nullptr, tracer, 0);
            if (!e.cycles || rep.total_cycles() != *e.cycles || !e.logits ||
                rep.readout != *e.logits) {
                checks.fail("(c) Sia run_stage replay of " + what + ": cycles " +
                            std::to_string(rep.total_cycles()) + " vs served " +
                            std::to_string(e.cycles.value_or(-1)));
            }
            sia_replays.push_back(std::move(rep));
            ++sia_replay_requests;
            if (key == 0) kernel_train = train;
        }
        snn::FunctionalEngine engine(model, engine_cfg);
        (void)engine.run(kernel_train);
        engine.save_session(session_sample);
    } else {
        const snn::ExitCriterion criterion = dvs_criterion();
        std::int64_t used_total = 0;
        std::int64_t offered_total = 0;
        for (std::size_t s = 0; s < streams.size(); ++s) {
            const auto& windows = streams[s].windows;
            snn::EngineConfig history_cfg;  // records the per-step readout
            snn::FunctionalEngine follower(model, history_cfg);
            follower.reset();
            perfbench::ReferenceNet ref(model);
            snn::SpikeTrain integrated;
            snn::SessionState state;
            follower.save_session(state);
            for (std::size_t w = 0; w < windows.size(); ++w) {
                const std::string what = "stream " + std::to_string(s) + " window " + std::to_string(w);
                const Expected e = table.get(s * windows.size() + w);
                if (!e.logits) {
                    checks.fail("no served result for " + what);
                    break;
                }
                // (e) replay the margin rule over the window's full history.
                const snn::SessionState entry = state;
                follower.restore_session(entry);
                const snn::RunResult full = follower.run_window(windows[w]);
                const std::int64_t fired = perfbench::margin_exit_step(
                    full.logits_per_step, entry.readout, criterion.margin, criterion.min_steps,
                    criterion.hysteresis, criterion.check_interval);
                const std::int64_t expect_steps =
                    fired > 0 ? fired : static_cast<std::int64_t>(windows[w].size());
                const snn::ExitReason expect_reason =
                    fired > 0 ? snn::ExitReason::kMargin : snn::ExitReason::kNone;
                if (e.steps_used != expect_steps || e.reason != expect_reason) {
                    checks.fail("(e) " + what + ": exit after " + std::to_string(e.steps_used) +
                                " steps (" + snn::to_string(e.reason) + "), margin replay says " +
                                std::to_string(expect_steps) + " (" +
                                snn::to_string(expect_reason) + ")");
                }
                // Advance the follower over the integrated prefix only.
                const snn::SpikeTrain prefix(windows[w].begin(),
                                             windows[w].begin() + e.steps_used);
                follower.restore_session(entry);
                (void)follower.run_window(prefix);
                follower.save_session(state);
                // (b) integer reference stepped over the same prefix.
                for (const snn::SpikeMap& frame : prefix) ref.step(perfbench::unpack(frame));
                if (ref.readout() != *e.logits) {
                    checks.fail("(b) " + what + ": served logits differ from the integer reference");
                }
                // (c) layer-at-a-time Sia replay of the segmented window.
                snn::SessionState sia_state = entry;
                perfbench::SiaReplay rep =
                    perfbench::replay_sia(replay_sia_instance, model, windows[w], e.steps_used,
                                          &criterion, &sia_state, tracer, 0);
                if (!e.cycles || rep.total_cycles() != *e.cycles || rep.readout != *e.logits) {
                    checks.fail("(c) Sia run_stage replay of " + what + ": cycles " +
                                std::to_string(rep.total_cycles()) + " vs served " +
                                std::to_string(e.cycles.value_or(-1)));
                }
                sia_replays.push_back(std::move(rep));
                ++sia_replay_requests;
                integrated.insert(integrated.end(), prefix.begin(), prefix.end());
                used_total += e.steps_used;
                offered_total += static_cast<std::int64_t>(windows[w].size());
            }
            // (f) the carried readout equals one monolithic run over the
            // concatenation of the integrated steps.
            snn::FunctionalEngine mono(model, engine_cfg);
            const snn::RunResult whole = mono.run(integrated);
            const Expected last = table.get(s * windows.size() + windows.size() - 1);
            if (!last.logits || whole.readout != *last.logits) {
                checks.fail("(f) stream " + std::to_string(s) +
                            ": final carried readout differs from the monolithic run");
            }
            if (s == 0) {
                kernel_train = integrated;
                kernel_requests = static_cast<std::int64_t>(windows.size());
                session_sample = state;
            }
        }
        exit_share_check = offered_total > 0 ? static_cast<double>(used_total) /
                                                   static_cast<double>(offered_total)
                                             : 0.0;
    }

    std::cerr << "perfbench: output checks took " << micros(checks_t0, Clock::now()) / 1e6
              << " s\n";

    // ------------------------------------------------------------ report
    const Lane& fl = lanes[0];
    const Lane& sl = lanes[1];
    for (const Lane* lane : {&fl, &sl}) {
        if (lane->log.min_block() < SampleLog::kMinPerBlock) {
            checks.fail(lane->name + " lane measured only " +
                        std::to_string(lane->log.min_block()) +
                        " requests in a block; the p90s need at least " +
                        std::to_string(SampleLog::kMinPerBlock));
        }
    }
    Metrics e2e;
    e2e.add("setup_s", setup_s, "s");
    e2e.add("peak_rss_mb", served_rss_mb, "MB");
    for (const Lane* lane : {&fl, &sl}) {
        e2e.add(lane->name + ".requests_per_s", lane->log.rate(), "1/s");
        e2e.add(lane->name + ".request_p50_ms", lane->log.latency_ms(0.5), "ms");
        e2e.add(lane->name + ".request_p90_ms", lane->log.latency_ms(0.9), "ms");
    }
    e2e.add("sia.modeled_ms_per_request",
            sl.timed.cycles / std::max<double>(1.0, static_cast<double>(sl.timed.completed)) /
                (sia_cfg.clock_mhz * 1e3),
            "ms");

    Metrics metrics;
    if (opt.trace) {
        // server.* and backend.* from the decorator.
        for (const Lane* lane : {&fl, &sl}) {
            std::vector<double> wait;
            for (const SampleLog::Sample& s : lane->log.samples()) {
                wait.push_back((s.latency_us - lane->traced->span_us(s.id)) / 1e3);
            }
            metrics.add("server.queue_wait_ms." + lane->name, quantile(wait, 0.5), "ms");
            metrics.add("server.wave_size." + lane->name, lane->wave_size, "requests");
        }
        for (const Lane* lane : {&fl, &sl}) {
            std::vector<double> service = lane->traced->per_request_us();
            metrics.add("backend.service_ms." + lane->name, quantile(service, 0.5) / 1e3, "ms");
        }
        std::vector<double> enc = fl.traced->encode_us();
        const std::vector<double> enc_sia = sl.traced->encode_us();
        enc.insert(enc.end(), enc_sia.begin(), enc_sia.end());
        metrics.add("backend.encode_us", quantile(enc, 0.5), "us");

        // engine.*: kernel replay, three repetitions, per request.
        std::vector<perfbench::KernelReplay> reps;
        for (int r = 0; r < 3; ++r) {
            reps.push_back(perfbench::replay_kernels(model, kernel_train, tracer, 0));
            if (!reps.back().mismatch.empty()) checks.fail("kernel replay: " + reps.back().mismatch);
        }
        const auto stage_median = [&](perfbench::StageTotals perfbench::KernelReplay::*field) {
            std::vector<perfbench::StageTotals> v;
            for (const auto& r : reps) v.push_back(r.*field);
            perfbench::StageTotals m = median_stages(v);
            m.scale(1.0 / static_cast<double>(kernel_requests));
            return m;
        };
        std::vector<double> step_us;
        for (const auto& r : reps) step_us.push_back(r.step_us);
        metrics.add("engine.step_us", quantile(step_us, 0.5), "us");
        const perfbench::StageTotals dense = stage_median(&perfbench::KernelReplay::psum_dense_us);
        const perfbench::StageTotals scatter = stage_median(&perfbench::KernelReplay::psum_scatter_us);
        const perfbench::StageTotals fire = stage_median(&perfbench::KernelReplay::fire_us);
        const perfbench::StageTotals transpose = stage_median(&perfbench::KernelReplay::transpose_us);
        const perfbench::StageTotals picked = stage_median(&perfbench::KernelReplay::picked_us);
        const perfbench::StageTotals other = stage_median(&perfbench::KernelReplay::other_us);
        for (const std::string& st : kStages) {
            metrics.add("engine.psum_dense_us." + st, dense.get(st), "us");
            metrics.add("engine.psum_scatter_us." + st, scatter.get(st), "us");
            metrics.add("engine.fire_us." + st, fire.get(st), "us");
            metrics.add("engine.transpose_us." + st, transpose.get(st), "us");
            if (picked.get(st) > 0.0) {
                std::cerr << "dispatch: stage " << st << ": adaptive pick " << picked.get(st)
                          << " us/request, the other psum form " << other.get(st)
                          << " us/request on the same layer-steps"
                          << (picked.get(st) > other.get(st) ? " (pick slower)" : "") << "\n";
            }
        }
        const double layer_steps = static_cast<double>(fl.timed.scatter_steps + fl.timed.dense_steps);
        metrics.add("engine.scatter_share",
                    layer_steps > 0 ? static_cast<double>(fl.timed.scatter_steps) / layer_steps : 0.0,
                    "share");
        metrics.add("engine.session_us", perfbench::time_session_us(model, session_sample, 201),
                    "us");

        // sia.*: layer-at-a-time replays, per request.
        perfbench::StageTotals host_us;
        perfbench::StageTotals cycles;
        double host_total_ns = 0.0;
        double events = 0.0;
        for (const auto& rep : sia_replays) {
            for (std::size_t li = 0; li < model.layers.size(); ++li) {
                const std::string st = perfbench::stage_of(model.layers[li]);
                host_us.add(st, rep.host_us[li]);
                cycles.add(st, static_cast<double>(rep.layer_stats[li].total()));
                host_total_ns += rep.host_us[li] * 1e3;
                events += static_cast<double>(rep.layer_stats[li].event_additions);
            }
        }
        const double per = 1.0 / static_cast<double>(std::max<std::int64_t>(1, sia_replay_requests));
        host_us.scale(per);
        cycles.scale(per);
        for (const std::string& st : kStages) {
            metrics.add("sia.host_us." + st, host_us.get(st), "us");
            metrics.add("sia.modeled_cycles." + st, cycles.get(st), "cycles");
        }
        metrics.add("sia.host_ns_per_event", events > 0 ? host_total_ns / events : 0.0, "ns");
        metrics.add("sia.chunk_passes_per_request", sl.traced->chunk_passes_per_request(),
                    "passes");
        metrics.add("exit.steps_used_share",
                    fl.timed.steps_offered > 0 ? static_cast<double>(fl.timed.steps_used) /
                                                     static_cast<double>(fl.timed.steps_offered)
                                               : 0.0,
                    "share");
        metrics.add("setup.model_s", built.build_s, "s");
        metrics.add("setup.convert_ms", built.convert_ms, "ms");
        metrics.add("setup.compile_ms", compile_ms, "ms");
        metrics.add("setup.warm_ms", warm_ms, "ms");

        // Reference figures (standard error only): activity per stage
        // and the cost model's per-stage latency and GOPS.
        const perfbench::StageTotals in_spikes = reps.front().in_spikes;
        const perfbench::StageTotals in_sites = reps.front().in_sites;
        const perfbench::StageTotals out_spikes = reps.front().out_spikes;
        const perfbench::StageTotals out_sites = reps.front().out_sites;
        std::map<std::string, int> layer_count;
        for (const auto& layer : model.layers) ++layer_count[perfbench::stage_of(layer)];
        std::uint64_t dense_ops = 0;
        std::int64_t pl_cycles = 0;
        for (const auto& rep : sia_replays) {
            for (const auto& ls : rep.layer_stats) {
                dense_ops += ls.dense_ops;
                pl_cycles += ls.compute + ls.aggregate + ls.dma;
            }
        }
        for (const std::string& st : in_sites.stages()) {
            std::fprintf(stderr,
                         "reference: stage %-4s layers %2d input density %.4f spike rate %.4f "
                         "modelled %.3f ms/request\n",
                         st.c_str(), layer_count[st], in_spikes.get(st) / in_sites.get(st),
                         out_spikes.get(st) / out_sites.get(st),
                         cycles.get(st) / (sia_cfg.clock_mhz * 1e3));
        }
        std::fprintf(stderr, "reference: modelled GOPS %.3f (dense ops over PL busy time)\n",
                     pl_cycles > 0 ? static_cast<double>(dense_ops) /
                                         (static_cast<double>(pl_cycles) / (sia_cfg.clock_mhz * 1e6)) / 1e9
                                   : 0.0);
        std::cerr << "end-to-end metrics of this traced run: " << e2e.json() << "\n";

        if (!opt.trace_out.empty() && !tracer.write(opt.trace_out)) {
            std::cerr << "perfbench: cannot write trace " << opt.trace_out << "\n";
            checks.fail("trace file not written");
        }
    }
    if (dvs) std::cerr << "dvs: first-round steps_used share " << exit_share_check << "\n";
    std::cerr << "perfbench: workload " << opt.workload << " seed " << opt.seed << " workers "
              << workers << " arch " << PERFBENCH_ARCH << " compiler " << PERFBENCH_COMPILER
              << " functional " << fl.timed.completed << " req, sia " << sl.timed.completed
              << " req\n";

    const bool correct = checks.ok();
    if (!correct) std::cerr << "perfbench: CHECK FAILED: " << checks.first() << "\n";
    const std::size_t attempted = fl.timed.completed + fl.timed.failed + sl.timed.completed +
                                  sl.timed.failed;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << fl.timed.failed + sl.timed.failed
              << ", \"metrics\": " << (opt.trace ? metrics : e2e).json() << "}" << std::endl;
    return correct ? 0 : 1;
}
