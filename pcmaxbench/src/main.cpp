// pcmaxbench: end-to-end and per-layer benchmark of pcmax.
//
//   pcmaxbench --workload <paper-eps03|svc-zipf> --seed <n>
//              --seconds <s> --trace <0|1> [--smoke]
//   pcmaxbench --self-test
//
// Every workload runs a library arm (`ptas` against `parallel-ptas`) and a
// service arm (SolveService::submit_async) on inputs made from the seed, and
// checks every output. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; untraced runs report the
// end-to-end metrics, traced runs (--trace 1) the per-layer ones and write
// their spans to .bench_out/trace-<workload>-seed<n>.json.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "algo/ptas/dp_table.hpp"
#include "arms.hpp"
#include "core/solver_registry.hpp"

namespace pcmaxbench {

Session make_session(const Workload& workload, const RunOptions& options) {
  Session s;
  for (std::size_t i = 0; i < workload.lib_shapes.size(); ++i) {
    for (int j = 0; j < workload.lib_per_shape; ++j) {
      s.lib_set.push_back(generate(workload.lib_shapes[i],
                                   mix_seed(options.seed, 0x6c696200 + i * 1000 +
                                                              static_cast<std::size_t>(j))));
    }
  }
  s.keys = make_keys(workload, options.seed);
  s.executor = pcmax::make_executor("workstealing", 2);
  pcmax::SolverBuild build;
  build.epsilon = workload.lib_eps;
  build.executor = s.executor.get();
  s.seq = pcmax::SolverRegistry::global().create("ptas", build);
  s.par = pcmax::SolverRegistry::global().create("parallel-ptas", build);

  pcmax::ServiceOptions service;
  service.shards = 2;
  service.workers = 2;
  service.lane_width = 1;
  service.coalesce = true;
  service.epsilon = workload.traffic.eps;
  // Deep enough that the fixed open-loop rate never saturates a shard's
  // queue, which would degrade responses instead of measuring them.
  service.queue_capacity = 1024;
  s.service = std::make_unique<pcmax::SolveService>(service);

  // A first parallel solve starts the executor's workers and allocates what
  // later ones reuse; a fixed quick instance keeps that out of the timed loop.
  (void)s.par->solve(generate({Family::kTen, 10, 50, false}, 0x7761726d).instance);
  return s;
}

void solve_references(const Workload& workload, Session& s) {
  for (const Generated& g : s.lib_set) s.lib_refs.push_back(s.seq->solve(g.instance).makespan);
  pcmax::SolverBuild reference;
  reference.epsilon = workload.traffic.eps;
  const auto solver = pcmax::SolverRegistry::global().create("ptas", reference);
  for (const Generated& key : s.keys) s.key_refs.push_back(solver->solve(key.instance).makespan);
}

}  // namespace pcmaxbench

namespace {

using namespace pcmaxbench;

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: pcmaxbench --workload <paper-eps03|svc-zipf> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke]\n"
               "       pcmaxbench --self-test\n",
               why);
  return 2;
}

void print_json(bool correct, const Tally& tally, const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  const char* sep = "";
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(),
                metric.value, metric.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const double process_start = now_s();
  std::string workload_name;
  RunOptions options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) return "";
      return argv[++i];
    };
    try {
      if (arg == "--self-test") {
        const int failures = self_test();
        std::printf("self-test: %d check(s) misbehaved\n", failures);
        return failures == 0 ? 0 : 1;
      } else if (arg == "--workload") {
        workload_name = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
        have_seconds = options.seconds > 0;
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        options.trace = v == "1";
        have_trace = true;
      } else if (arg == "--smoke") {
        options.smoke = true;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  const Workload* workload = find_workload(workload_name);
  if (workload == nullptr) return usage("unknown or missing --workload");
  if (options.smoke) {
    options.seconds = 1.0;
    have_seconds = true;
    have_seed = true;
    have_trace = true;
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }

  // The program's set-up (generating the inputs, creating the solvers,
  // starting the executor and the service, one warm-up solve) is timed from
  // scratch before the run and again before every slice, and the median is
  // reported. The repetitions sample the host over the whole run, as every
  // other metric does, so that one slow moment does not decide the figure;
  // work moved into set-up still shows in every repetition. The first also
  // counts the time since process start. The benchmark's own reference
  // solves follow, timed apart: they are check work, and their time follows
  // the instances a seed draws.
  Tracer tracer;
  std::vector<double> setup_times;
  const auto set_up = [&](double t0) {
    Session s = make_session(*workload, options);
    setup_times.push_back(now_s() - t0);
    return s;
  };
  Session session = set_up(process_start);
  const double references_start = now_s();
  solve_references(*workload, session);
  const double references_s = now_s() - references_start;

  std::printf("pcmaxbench %s seed %llu, %.1f s, trace %d; build %s, DP kernel %s, %u hardware "
              "threads; reference solves %.3f s\n",
              workload->name.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, PCMAXBENCH_BUILD_TYPE,
              pcmax::dp_kernel_name(pcmax::select_best_kernel()),
              std::thread::hardware_concurrency(), references_s);

  Tally tally;
  Metrics metrics;
  Tracer* traced = options.trace ? &tracer : nullptr;
  {
    // The arms take turns in slices spread over the whole run, so that every
    // metric samples the host over all of it rather than over one stretch.
    LibraryArm library(*workload, session, options, traced, tally);
    ServiceArm service(*workload, session, options, traced, tally);
    const int slices = options.smoke ? 1 : 12;
    const double slice = options.seconds / slices;
    for (int i = 0; i < slices; ++i) {
      (void)set_up(now_s());  // shut down again outside the timing
      library.run(slice * workload->lib_share);
      service.closed(slice * workload->closed_share);
      service.open(slice * workload->open_share);
    }
    library.report(metrics);
    service.finish(metrics);
  }
  if (options.trace) {
    ::mkdir(".bench_out", 0755);
    const std::string trace_out = ".bench_out/trace-" + workload->name + "-seed" +
                                  std::to_string(options.seed) + ".json";
    tracer.write(trace_out);
    std::printf("trace written to %s\n", trace_out.c_str());
  } else {
    metrics["setup_s"] = {quantile(setup_times, 0.5), "s"};
    metrics["peak_rss_mb"] = {peak_rss_mib(), "MiB"};
  }
  for (const auto& [name, metric] : metrics) {
    std::printf("%-28s %14.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  for (const std::string& e : tally.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
  std::fflush(stdout);
  session = Session{};
  print_json(tally.errors.empty(), tally, metrics);
  return 0;
}
