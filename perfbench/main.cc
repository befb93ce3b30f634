// The repo's end-to-end benchmark: one workload per process.
//
//   perfbench --workload <train-cr1000|serve-cr10|online-cr1000>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>] [--commit <rev>]
//
// Prints a human-readable summary, one `report ` line holding the named
// workload metrics, the serving ladder, the output checks and the host and
// build fingerprint, and finally the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Exits 1 when an output check fails.
#include <cpuid.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "common.h"
#include "common/simd.h"
#include "obs/json_writer.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

const std::vector<std::pair<std::string, std::string>>& E2eMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},
      {"mem.peak_rss_mb", "MB"},
      {"rate_per_s", "1/s"},
      {"lat_p50_us", "us"},
      {"quality.test_auc", "AUC"},
      {"quality.test_ne", "ratio"},
  };
  return names;
}

std::string CpuModel() {
  unsigned int regs[12] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  std::string model(reinterpret_cast<const char*>(regs), sizeof(regs));
  model = model.c_str();  // drop the NUL padding
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

bool ReleaseBuild() {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <train-cr1000|serve-cr10|online-cr1000> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--commit <rev>]\n",
               argv0);
  return 2;
}

/// Every per-layer metric, in print order, with units; a traced run prints
/// all of them, 0 for a layer its workload does not exercise.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"data.generate_s", "s"},
      {"train.step_us_p50", "us"},
      {"train.step_us_p99", "us"},
      {"train.step_sum_over_wall", "ratio"},
      {"nn.train_self_us_p50", "us"},
      {"nn.train_self_us_p99", "us"},
      {"nn.predict_self_us_p50", "us"},
      {"nn.predict_self_us_p99", "us"},
      {"embed.gather_us_p50", "us"},
      {"embed.gather_us_p99", "us"},
      {"embed.gather_rows", "count"},
      {"embed.scatter_us_p50", "us"},
      {"embed.scatter_us_p99", "us"},
      {"embed.scatter_rows", "count"},
      {"embed.gather_const_us_p50", "us"},
      {"embed.gather_const_us_p99", "us"},
      {"embed.tick_us_p50", "us"},
      {"embed.tick_us_p99", "us"},
      {"embed.store_bytes", "bytes"},
      {"core.hot_lookup_frac", "frac"},
      {"core.migrations", "count"},
      {"core.demotions", "count"},
      {"serve.predict_us_p50", "us"},
      {"serve.predict_us_p99", "us"},
      {"serve.batch_samples_mean", "count"},
      {"serve.queue_wait_us_p50", "us"},
      {"serve.queue_wait_us_p99", "us"},
      {"serve.rejected", "count"},
      {"loadgen.late_us_p99", "us"},
      {"loadgen.late_us_max", "us"},
      {"loadgen.backlog_end", "count"},
      {"snapshot.pause_us_p50", "us"},
      {"snapshot.pause_us_p99", "us"},
      {"snapshot.cut_us_p50", "us"},
      {"snapshot.cut_us_p99", "us"},
      {"snapshot.payload_bytes_p50", "bytes"},
      {"replicate.publish_us_p50", "us"},
      {"replicate.publish_us_p99", "us"},
      {"replicate.apply_us_p50", "us"},
      {"replicate.apply_us_p99", "us"},
      {"replicate.wire_us_p50", "us"},
      {"replicate.wire_us_p99", "us"},
      {"replicate.read_calls", "count"},
      {"replicate.read_bytes", "bytes"},
      {"replicate.base_s", "s"},
      {"replicate.resyncs", "count"},
      {"trace.overhead_ns_per_step", "ns"},
      {"trace.overhead_pct_step", "%"},
      {"trace.overhead_ns_per_batch", "ns"},
      {"trace.overhead_pct_batch", "%"},
  };
  return names;
}

}  // namespace

void Result::Print(const Args& args) const {
  for (const auto* list : {&e2e_, &named_}) {
    for (const Metric& m : *list) {
      std::printf("%-28s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const CheckRow& c : checks_) {
    std::printf("check %-36s %s  (%s)\n", c.name.c_str(),
                c.ok ? "ok" : "FAILED", c.detail.c_str());
  }

  cafe::obs::JsonWriter report;
  report.BeginObject();
  report.Field("workload", args.workload);
  report.Field("seed", args.seed);
  report.Field("seconds", args.seconds);
  report.Field("trace", args.trace);
  report.Key("host");
  report.BeginObject();
  report.Field("nproc",
               static_cast<uint64_t>(std::thread::hardware_concurrency()));
  report.Field("cpu_model", CpuModel());
  report.Field("simd_tier", cafe::simd::ActiveTierName());
  report.Field("compiler", __VERSION__);
  report.Field("build_type", PERFBENCH_BUILD_TYPE);
  report.Field("commit", args.commit);
  report.EndObject();
  report.Key("metrics");
  report.BeginObject();
  for (const Metric& m : e2e_) {
    report.Key(m.name.c_str());
    report.BeginObject();
    report.Field("value", m.value);
    report.Field("unit", m.unit);
    report.EndObject();
  }
  for (const Metric& m : named_) {
    report.Key(m.name.c_str());
    report.BeginObject();
    report.Field("value", m.value);
    report.Field("unit", m.unit);
    report.EndObject();
  }
  report.EndObject();
  report.Key("checks");
  report.BeginObject();
  for (const CheckRow& c : checks_) report.Field(c.name.c_str(), c.ok);
  report.EndObject();
  report.Key("exact");
  report.BeginObject();
  for (const auto& [name, hex] : exact_) report.Field(name.c_str(), hex);
  report.EndObject();
  report.Key("rungs");
  report.BeginArray();
  report.EndArray();
  report.EndObject();
  // Splice the pre-encoded rung objects into the empty array.
  std::string report_text = report.str();
  std::string rungs;
  for (size_t i = 0; i < rungs_.size(); ++i) {
    rungs += (i > 0 ? "," : "") + rungs_[i];
  }
  const size_t at = report_text.rfind("[]");
  report_text.replace(at, 2, "[" + rungs + "]");
  std::printf("report %s\n", report_text.c_str());

  std::map<std::string, std::pair<double, std::string>> values;
  for (const Metric& m : args.trace ? layer_ : e2e_) {
    values[m.name] = {m.value, m.unit};
  }
  cafe::obs::JsonWriter line;
  line.BeginObject();
  line.Field("correct", all_checks_ok());
  line.Field("attempted", attempted);
  line.Field("failed", failed);
  line.Key("metrics");
  line.BeginObject();
  for (const auto& [name, unit] :
       args.trace ? LayerMetricNames() : E2eMetricNames()) {
    auto it = values.find(name);
    line.Key(name.c_str());
    line.BeginObject();
    line.Field("value", it == values.end() ? 0.0 : it->second.first);
    line.Field("unit", unit);
    line.EndObject();
  }
  line.EndObject();
  line.EndObject();
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return perfbench::Usage(argv[0]);
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      return perfbench::Usage(argv[0]);
    }
  }
  if (args.seconds < 1) return perfbench::Usage(argv[0]);
  if (!perfbench::ReleaseBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a non-Release build "
                 "(build type '%s')\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  perfbench::Result result;
  if (args.workload == "train-cr1000") {
    perfbench::RunTrainWorkload(args, &result);
  } else if (args.workload == "serve-cr10") {
    perfbench::RunServeWorkload(args, &result);
  } else if (args.workload == "online-cr1000") {
    perfbench::RunOnlineWorkload(args, &result);
  } else {
    return perfbench::Usage(argv[0]);
  }
  result.E2e("mem.peak_rss_mb", perfbench::PeakRssMb(), "MB");
  result.Print(args);
  return result.all_checks_ok() ? 0 : 1;
}
