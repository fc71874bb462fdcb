// serve-open: an open-loop request schedule into a 2-shard PrefetchServer.
//
// One generator thread sends request i at start + i / rate, whatever the
// server's state, and polls completions between sends; with the watchdog
// off the run uses 3 threads (generator + 2 shards). Latency is timed from
// each request's due time, so a stalled server or a late generator shows
// up in every request behind it. Three fixed absolute rates: `low` (50K/s)
// and `high` (140K/s) sit below the 150-400K predictions/s two shards
// reached on a shared 4-core Xeon, `over` (1M/s) far above it, where the
// completion rate is the server's throughput. Ingress backpressure rejections are
// retried after a short pause and counted, not failed.
#include <algorithm>
#include <cstring>
#include <sstream>

#include "core/configs.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "inputs.hpp"
#include "serve/server.hpp"
#include "tabular/workspace.hpp"
#include "trace/generators.hpp"

namespace perfbench {

using namespace dart;

namespace {

constexpr std::size_t kShards = 2;
constexpr double kLowRate = 50000.0;
constexpr double kHighRate = 140000.0;
constexpr double kOverRate = 1000000.0;
constexpr std::size_t kRowsPerApp = 4096;
constexpr std::size_t kSlots = 4096;         ///< in-flight buffers per session
constexpr std::uint64_t kRetryPauseNs = 5000;  ///< wait after a backpressure rejection
constexpr std::uint64_t kDrainNs = 10'000'000'000;  ///< max wait for the last responses
constexpr std::size_t kCheckEvery = 97;      ///< every Nth request's output is verified
constexpr std::size_t kMaxChecked = 1024;    ///< verified outputs kept per phase
constexpr double kWindowS = 0.25;  ///< throughput is the median over windows this long

struct Checked {
  std::size_t row = 0;
  std::vector<float> probs;
};

struct PhaseOutcome {
  std::uint64_t offered = 0, submitted = 0, completed = 0, shed = 0, rejects = 0,
                id_mismatches = 0;
  std::vector<std::uint64_t> window_done;  ///< completions per kWindowS window
  std::vector<double> latency_us;  ///< due -> completion, served (below capacity only)
  std::vector<double> late_us;     ///< due -> accepted submit (below capacity only)
  std::vector<Checked> checked;
  serve::ServeStatsSummary server;
};

std::string pct_note(const std::vector<double>& v) {
  std::ostringstream os;
  os << "{\"p50_us\": " << median(v) << ", \"p99_us\": " << quantile(v, 0.99)
     << ", \"samples\": " << v.size() << ", \"beyond_p99\": " << v.size() / 100 << "}";
  return os.str();
}

class ServeWorkload final : public Workload {
 public:
  void setup(const Options& options, Result&) override {
    // Each set-up starts from nothing, so peak memory is one set-up's.
    rows_ = FeatureRows{};
    model_.reset();
    const trace::PreprocessOptions prep = core::default_preprocess();
    const double t0 = now_s();
    std::vector<trace::MemoryTrace> traces;
    std::uint64_t stream = 0;
    for (trace::App app : trace::all_apps()) {
      traces.push_back(trace::generate(app, kRowsPerApp + prep.history,
                                       common::derive_seed(options.seed, stream++)));
    }
    gen_times_.push_back(now_s() - t0);
    for (const auto& t : traces) append_rows(t, prep, kRowsPerApp, rows_);
    model_ = student_model();
  }

  void measure(const Options& options, Result& result) override {
    const Phases p = run_phases(options, result);
    const std::vector<double> rates = window_rates(p.over);
    result.check(!rates.empty(), "the over phase spans a full throughput window (--seconds >= 2)");
    result.set("throughput_per_s", median(rates));
    result.set("latency_us", median(p.low.latency_us));
    result.set("serve_pred_per_s", median(rates));
    result.set("serve_p50_us.low", median(p.low.latency_us));
    result.set("serve_p50_us.high", median(p.high.latency_us));
    result.set("serve_p99_us.low", quantile(p.low.latency_us, 0.99));
    result.set("serve_p99_us.high", quantile(p.high.latency_us, 0.99));
    result.note("latency_low", pct_note(p.low.latency_us));
    result.note("latency_high", pct_note(p.high.latency_us));
    result.note("generator_late_high", pct_note(p.high.late_us));
  }

  void trace(const Options& options, Result& result) override {
    const Phases p = run_phases(options, result);
    // Nothing is wrapped in the traced run: the serve counters are the
    // server's own, and the tabular probe runs after the phases.
    const serve::ServeStatsSummary& s = p.high.server;
    std::uint64_t depth_sum = 0, depth_max = 0;
    for (const auto& shard : s.shards) {
      depth_sum += shard.queue_depth_sum;
      depth_max = std::max(depth_max, shard.queue_depth_max);
    }
    std::vector<double> late = p.low.late_us;
    late.insert(late.end(), p.high.late_us.begin(), p.high.late_us.end());
    result.set("trace.gen_s", median(gen_times_));
    result.set("trace.overhead_share", 0.0);
    result.set("serve.avg_batch", s.avg_batch);
    result.set("serve.queue_depth_mean",
               s.batches > 0 ? static_cast<double>(depth_sum) / static_cast<double>(s.batches)
                             : 0.0);
    result.set("serve.queue_depth_max", static_cast<double>(depth_max));
    result.set("serve.backpressure_rejects",
               static_cast<double>(p.low.rejects + p.high.rejects + p.over.rejects));
    result.set("serve.shed", static_cast<double>(p.low.shed + p.high.shed + p.over.shed));
    result.set("serve.gen_late_p99_us", quantile(late, 0.99));
    result.set("serve.p99_us.low", quantile(p.low.latency_us, 0.99));
    result.set("serve.p99_us.high", quantile(p.high.latency_us, 0.99));
    probe_tabular(*model_, rows_, result);
  }

 private:
  struct Phases {
    PhaseOutcome low, high, over;
  };

  /// Completion rates of the phase's full windows, skipping the first
  /// (ramp-up) and the last (drain); their median is the throughput, so a
  /// burst of host steal moves a few windows rather than the result.
  static std::vector<double> window_rates(const PhaseOutcome& p) {
    std::vector<double> rates;
    for (std::size_t w = 1; w + 1 < p.window_done.size(); ++w) {
      rates.push_back(static_cast<double>(p.window_done[w]) / kWindowS);
    }
    return rates;
  }

  Phases run_phases(const Options& options, Result& result) {
    // One core per thread, so the scheduler never stacks the generator on a
    // shard's core (that halved one run's throughput).
    common::pin_current_thread(kShards);
    run_phase(kLowRate, 0.2, false);  // warm-up: shard threads, workspaces, page faults
    // The overload phase gets half the time: its windowed throughput is the
    // noisiest number, the latency medians settle on far fewer samples.
    Phases p;
    p.low = run_phase(kLowRate, options.seconds / 4.0, false);
    p.high = run_phase(kHighRate, options.seconds / 4.0, false);
    p.over = run_phase(kOverRate, options.seconds / 2.0, true);
    for (const PhaseOutcome* o : {&p.low, &p.high, &p.over}) verify(*o, result);
    return p;
  }

  void verify(const PhaseOutcome& o, Result& result) {
    result.attempted += o.offered;
    const std::uint64_t lost = o.submitted - std::min(o.submitted, o.completed + o.shed);
    result.failed += o.shed + lost + (o.offered - o.submitted);
    result.check(o.id_mismatches == 0, "every response echoes its request's trace ID");
    result.check(o.completed + o.shed == o.submitted, "completed + shed == submitted");
    result.check(o.submitted == o.offered, "every offered request was submitted");
    const nn::ModelConfig arch = model_->arch();
    tabular::InferenceWorkspace ws(model_->tabular_arch());
    std::vector<float> expect(arch.out_dim);
    for (const Checked& c : o.checked) {
      model_->forward_sample_into(rows_.addr_row(c.row), rows_.pc_row(c.row), expect.data(), ws);
      result.check(std::memcmp(expect.data(), c.probs.data(), expect.size() * sizeof(float)) == 0,
                   "served probabilities bit-equal to forward_sample_into for row " +
                       std::to_string(c.row));
    }
    result.check(!o.checked.empty() || o.offered < kCheckEvery, "served outputs were sampled");
  }

  /// Offers `rate` requests/s for `seconds`. Below capacity every offered
  /// request is sent, however late. An `overload` phase stops offering at
  /// the end of its window instead: its backlog is expected, and sending it
  /// would only stretch the run.
  PhaseOutcome run_phase(double rate, double seconds, bool overload) {
    const std::size_t out_dim = model_->arch().out_dim;
    serve::ServeConfig cfg;
    cfg.shards = kShards;
    cfg.pin_threads = true;  // shard i on core i; the generator is pinned past them
    cfg.watchdog_ms = 0;
    cfg.completion_capacity = kSlots;
    serve::PrefetchServer server(model_, cfg);

    struct Slot {
      std::uint64_t id = 0;
      std::uint64_t due_ns = 0;
      std::uint64_t request = 0;
    };
    struct Session {
      std::unique_ptr<serve::ClientSession> client;
      std::vector<float> probs;
      std::vector<Slot> slots;
      std::vector<std::uint32_t> free;
    };
    std::vector<Session> sessions(kShards);
    for (Session& s : sessions) {
      s.client = server.connect(kSlots);
      s.probs.assign(kSlots * out_dim, 0.0f);
      s.slots.resize(kSlots);
      for (std::uint32_t i = 0; i < kSlots; ++i) s.free.push_back(kSlots - 1 - i);
    }

    PhaseOutcome o;
    o.offered = static_cast<std::uint64_t>(rate * seconds);
    if (!overload) {
      o.latency_us.reserve(o.offered);
      o.late_us.reserve(o.offered);
    }
    const double period_ns = 1e9 / rate;
    const std::uint64_t start = now_ns();
    const std::uint64_t end = start + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t next = 0, in_flight = 0, retry_at = 0;
    o.window_done.assign(static_cast<std::size_t>(seconds / kWindowS), 0);

    auto drain = [&](Session& s) {
      serve::Response r;
      while (s.client->poll(r)) {
        const std::uint64_t t = now_ns();
        --in_flight;
        const std::ptrdiff_t off = r.probs - s.probs.data();
        const std::size_t idx = off >= 0 ? static_cast<std::size_t>(off) / out_dim : kSlots;
        if (idx >= kSlots || s.slots[idx].id != r.trace_id) {
          ++o.id_mismatches;
          continue;
        }
        const Slot& slot = s.slots[idx];
        if (r.status == serve::Response::Status::kShed) {
          ++o.shed;
        } else {
          ++o.completed;
          if (!overload) o.latency_us.push_back(static_cast<double>(t - slot.due_ns) / 1e3);
          if (slot.request % kCheckEvery == 0 && o.checked.size() < kMaxChecked) {
            const float* p = s.probs.data() + idx * out_dim;
            o.checked.push_back({slot.request % rows_.count, std::vector<float>(p, p + out_dim)});
          }
        }
        const auto w = static_cast<std::size_t>(static_cast<double>(t - start) / 1e9 / kWindowS);
        if (w < o.window_done.size()) ++o.window_done[w];
        s.free.push_back(static_cast<std::uint32_t>(idx));
      }
    };

    // A response that never arrives must fail the run, not hang it: after
    // the last submit, outstanding requests get kDrainNs to complete.
    std::uint64_t drain_deadline = 0;
    while (next < o.offered || in_flight > 0) {
      for (Session& s : sessions) drain(s);
      const std::uint64_t now = now_ns();
      if (next >= o.offered) {
        if (drain_deadline == 0) drain_deadline = now + kDrainNs;
        if (now > drain_deadline) break;
        continue;
      }
      if (overload && now >= end) {
        o.offered = next;
        continue;
      }
      const std::uint64_t due =
          start + static_cast<std::uint64_t>(static_cast<double>(next) * period_ns);
      if (now < due || now < retry_at) continue;
      // Requests alternate between the shards; one refused by a full shard
      // goes to the other before the generator pauses, so a momentarily
      // slower shard does not hold back the whole schedule.
      const std::size_t row = next % rows_.count;
      bool sent = false;
      for (std::size_t k = 0; k < kShards && !sent; ++k) {
        Session& s = sessions[(next + k) % kShards];
        if (s.free.empty()) continue;
        const std::uint32_t idx = s.free.back();
        const std::uint64_t id = s.client->submit(rows_.addr_row(row), rows_.pc_row(row),
                                                  s.probs.data() + idx * out_dim);
        if (id == 0) {
          ++o.rejects;
          continue;
        }
        s.free.pop_back();
        s.slots[idx] = {id, due, next};
        sent = true;
      }
      if (!sent) {
        retry_at = now + kRetryPauseNs;
        continue;
      }
      if (!overload) o.late_us.push_back(static_cast<double>(now - due) / 1e3);
      ++o.submitted;
      ++in_flight;
      ++next;
    }
    o.server = server.stats();
    server.stop();
    return o;
  }

  FeatureRows rows_;
  std::vector<double> gen_times_;
  std::shared_ptr<const tabular::TabularPredictor> model_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_workload() { return std::make_unique<ServeWorkload>(); }

}  // namespace perfbench
