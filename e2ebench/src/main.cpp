// e2ebench — the repository's end-to-end benchmark.
//
//   e2ebench --workload <resident_walk|ooc_walk|serve_fleet|all>
//            [--seed 1] [--seconds 10] [--trace 0|1] [--work_dir DIR]
//
// Prints each workload's metrics by name and unit, then, as the last line
// of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones (tracing off); with
// --trace 1 the per-layer ones of a traced run. `all` runs the three
// workloads in one process and prefixes each metric with its workload.
// Exits 1 when a correctness check fails, 2 on a usage error.
#include <unistd.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/parallel.hpp"
#include "harness.hpp"

namespace {

using e2e::Metric;
using e2e::WorkloadResult;

struct Workload {
  const char* name;
  WorkloadResult (*run)(const e2e::RunOptions&);
};

constexpr Workload kWorkloads[] = {
    {"resident_walk", e2e::run_resident_walk},
    {"ooc_walk", e2e::run_ooc_walk},
    {"serve_fleet", e2e::run_serve_fleet},
};

std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_table(const std::string& workload, const std::vector<Metric>& ms) {
  std::printf("  %-40s %16s  %s\n", (workload + " metric").c_str(), "value",
              "unit");
  for (const Metric& m : ms) {
    std::printf("  %-40s %16.6g  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  sgs::CliArgs args(argc, argv);
  const std::string workload = args.get("workload", "");
  e2e::RunOptions opt;
  opt.seed = static_cast<std::uint64_t>(args.get_i64("seed", 1));
  opt.seconds = args.get_double("seconds", 10.0);
  opt.trace = args.get_int("trace", 0) != 0;
  opt.threads = e2e::available_cpus();
  const std::filesystem::path work_root =
      args.get("work_dir", ".bench_build/e2ebench-work");

  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (workload == w.name || workload == "all") selected.push_back(&w);
  }
  if (selected.empty() || opt.seconds <= 0.0 || !args.unused().empty()) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload <resident_walk|ooc_walk|"
                 "serve_fleet|all> [--seed N] [--seconds S] [--trace 0|1] "
                 "[--work_dir DIR]\n");
    return 2;
  }

  // Pool width == serve driver count == CPUs available.
  sgs::set_parallelism(opt.threads);
  const std::filesystem::path work =
      work_root / ("run-" + std::to_string(::getpid()));
  std::filesystem::create_directories(work);
  opt.work_dir = work.string();

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Metric> all;
  for (const Workload* w : selected) {
    WorkloadResult r = w->run(opt);
    std::vector<Metric>& ms = opt.trace ? r.layers : r.e2e;
    for (Metric& m : ms) {
      if (!std::isfinite(m.value)) {
        r.fail(m.name + " is not finite");
        m.value = 0.0;
      }
    }
    print_table(w->name, ms);
    std::printf("  %s: %s, %llu/%llu frames failed\n", w->name,
                r.correct ? "correct" : "INCORRECT",
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    for (Metric& m : ms) {
      if (selected.size() > 1) m.name = std::string(w->name) + "." + m.name;
      all.push_back(std::move(m));
    }
  }
  std::filesystem::remove_all(work);

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i > 0) json += ", ";
    json += json_string(all[i].name) +
            ": {\"value\": " + json_number(all[i].value) +
            ", \"unit\": " + json_string(all[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
