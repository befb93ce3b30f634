// Open-loop request generator for the serving workloads.
//
// One generator thread sends a 64-candidate request every 1/rate seconds
// on a fixed schedule, whatever the server does; one collector thread waits
// for the responses in send order. Latency is timed from each request's
// SCHEDULED send time, so a generator that falls behind, or a queue that
// builds up, shows in the latency instead of silently lowering the load.
// Responses are collected in send order, so a request that completes before
// an earlier one is stamped when the earlier one is done: the recorded
// latency is an upper bound by at most one micro-batch.
//
// A rung's p50 and p99 are the medians over its consecutive windows of the
// per-window p50 and p99. A host hiccup of a few milliseconds (a stalled
// vCPU) spoils one window, not the rung; a server past its knee spoils all
// of them.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/random.h"
#include "data/synthetic.h"
#include "serve/inference_server.h"
#include "trace.h"

namespace perfbench {

/// The serving SLO: a rung passes only if every condition holds.
struct Slo {
  double p99_us = 10000.0;
  /// Rejections plus errors, as a share of timed requests.
  double max_failed_frac = 0.001;
  /// The generator counts as on schedule while 90% of its sends leave
  /// within this of their scheduled time: isolated scheduler hiccups are
  /// charged to latency (timed from the schedule), a generator that falls
  /// behind fails the rung.
  double max_late_p90_us = 1000.0;
};

struct RungResult {
  double rate = 0.0;
  double seconds = 0.0;
  /// All requests, warm-up included.
  uint64_t sent = 0;
  uint64_t succeeded = 0;
  uint64_t rejected = 0;
  uint64_t failed = 0;
  /// Timed (post-warm-up) requests and their outcomes.
  uint64_t timed = 0;
  uint64_t timed_missed = 0;
  std::vector<double> latency_us;  // timed successes only
  std::vector<double> late_us;     // generator lateness, timed sends
  /// Per-window p50, p90 and p99, in window order.
  std::vector<double> window_p50s;
  std::vector<double> window_p90s;
  std::vector<double> window_p99s;
  /// Responses completed per second inside the timed part of the rung —
  /// the server's capacity when the rung overloads it.
  double completions_per_s = 0.0;
  /// Requests sent but not yet answered when the schedule ended. The rung
  /// counts the backlog as grown past 8 + 2 x (requests sent per SLO).
  uint64_t backlog_end = 0;
  /// Medians of the per-window percentiles.
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  /// p99 over the whole rung, every window pooled.
  double p99_pooled_us = 0.0;
  double late_p90_us = 0.0;
  double late_p99_us = 0.0;
  double late_max_us = 0.0;
  bool on_schedule = false;
  bool backlog_ok = false;
  bool pass = false;
};

class OpenLoop {
 public:
  /// Requests are `request_size` consecutive test-day samples starting at
  /// a seeded random offset in [begin, end - request_size].
  OpenLoop(cafe::InferenceServer* server, const cafe::SyntheticCtrDataset* data,
           size_t begin, size_t end, size_t request_size, uint64_t seed)
      : server_(server), data_(data), begin_(begin),
        span_(end - begin - request_size + 1), request_size_(request_size),
        rng_(seed) {}

  /// Sends at `rate` req/s for `seconds` (or until *stop turns true); the
  /// first `warmup_s` of sends are served but not timed, the rest are
  /// summarized per `window_s` window.
  RungResult Run(double rate, double seconds, double warmup_s,
                 double window_s, const Slo& slo,
                 const std::atomic<bool>* stop = nullptr) {
    struct Item {
      int64_t sched_ns;
      bool timed;
      std::future<std::vector<float>> future;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Item> queue;
    bool done = false;
    std::atomic<uint64_t> collected{0};
    RungResult r;
    r.rate = rate;

    const int64_t period_ns = static_cast<int64_t>(1e9 / rate);
    const int64_t t0 = NowNs() + 1000000;
    const int64_t end = t0 + static_cast<int64_t>(seconds * 1e9);
    const int64_t timed_from = t0 + static_cast<int64_t>(warmup_s * 1e9);

    uint64_t succeeded = 0, failed = 0, timed_failed = 0, in_window = 0;
    std::vector<double> latency;
    std::vector<int64_t> latency_sched;
    std::thread collector([&] {
      for (;;) {
        Item item;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done || !queue.empty(); });
          if (queue.empty()) return;
          item = std::move(queue.front());
          queue.pop_front();
        }
        try {
          item.future.get();
          const int64_t done_ns = NowNs();
          ++succeeded;
          if (done_ns >= timed_from && done_ns < end) ++in_window;
          if (item.timed) {
            latency.push_back((done_ns - item.sched_ns) / 1e3);
            latency_sched.push_back(item.sched_ns);
          }
        } catch (...) {
          ++failed;
          if (item.timed) ++timed_failed;
        }
        collected.fetch_add(1, std::memory_order_release);
      }
    });

    uint64_t pushed = 0;
    for (uint64_t i = 0;; ++i) {
      const int64_t sched = t0 + static_cast<int64_t>(i) * period_ns;
      if (sched >= end) break;
      if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
      SleepUntil(sched);
      const bool timed = sched >= timed_from;
      if (timed) r.late_us.push_back((NowNs() - sched) / 1e3);
      const size_t start = begin_ + rng_.Uniform(span_);
      auto submitted = server_->Submit(data_->GetBatch(start, request_size_));
      ++r.sent;
      if (timed) ++r.timed;
      if (!submitted.ok()) {
        ++r.rejected;
        if (timed) ++r.timed_missed;
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back({sched, timed, std::move(submitted).value()});
      }
      ++pushed;
      cv.notify_one();
    }
    r.seconds = (NowNs() - t0) / 1e9;
    r.backlog_end = pushed - collected.load(std::memory_order_acquire);
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_one();
    collector.join();

    r.succeeded = succeeded;
    r.failed = failed;
    r.timed_missed += timed_failed;
    std::vector<double> window, p50s, p90s, p99s;
    const int64_t window_ns = static_cast<int64_t>(window_s * 1e9);
    for (size_t i = 0; i < latency.size(); ++i) {
      window.push_back(latency[i]);
      const bool last = i + 1 == latency.size();
      if (last || (latency_sched[i + 1] - timed_from) / window_ns !=
                      (latency_sched[i] - timed_from) / window_ns) {
        p50s.push_back(Quantile(window, 0.50));
        p90s.push_back(Quantile(window, 0.90));
        p99s.push_back(Quantile(window, 0.99));
        window.clear();
      }
    }
    r.p50_us = Quantile(p50s, 0.50);
    r.p90_us = Quantile(p90s, 0.50);
    r.p99_us = Quantile(p99s, 0.50);
    r.window_p50s = std::move(p50s);
    r.window_p90s = std::move(p90s);
    r.window_p99s = std::move(p99s);
    const int64_t stop_ns = std::min(end, t0 + static_cast<int64_t>(
                                                   r.seconds * 1e9));
    if (stop_ns > timed_from) {
      r.completions_per_s = in_window / ((stop_ns - timed_from) / 1e9);
    }
    r.latency_us = std::move(latency);
    r.p99_pooled_us = Quantile(r.latency_us, 0.99);
    r.late_p90_us = Quantile(r.late_us, 0.90);
    r.late_p99_us = Quantile(r.late_us, 0.99);
    r.late_max_us =
        r.late_us.empty() ? 0.0
                          : *std::max_element(r.late_us.begin(),
                                              r.late_us.end());
    r.on_schedule = r.late_p90_us <= slo.max_late_p90_us;
    // A stall at the very end of a rung leaves a few requests queued; a
    // server past its knee fills the admission queue.
    r.backlog_ok = static_cast<double>(r.backlog_end) <=
                   8.0 + 2.0 * rate * slo.p99_us / 1e6;
    r.pass = r.timed > 0 && r.p99_us <= slo.p99_us &&
             static_cast<double>(r.timed_missed) <=
                 slo.max_failed_frac * static_cast<double>(r.timed) &&
             r.on_schedule && r.backlog_ok;
    return r;
  }

 private:
  /// Sleeps until ~50 us before `t_ns`, then spins: sleep_until alone
  /// oversleeps by the kernel's timer slack.
  static void SleepUntil(int64_t t_ns) {
    const int64_t coarse = t_ns - 50000;
    const int64_t now = NowNs();
    if (coarse > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(coarse - now));
    }
    while (NowNs() < t_ns) {
    }
  }

  cafe::InferenceServer* server_;
  const cafe::SyntheticCtrDataset* data_;
  size_t begin_;
  size_t span_;
  size_t request_size_;
  cafe::Rng rng_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
