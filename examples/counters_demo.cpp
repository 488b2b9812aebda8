// Artifact-style driver: run one workload/algorithm configuration and print
// a results block in the spirit of the paper artifact's output format
// (appendix D.5), including the in-counter node count that the artifact
// reports as nb_incounter_nodes.
//
// Usage examples:
//   counters_demo -bench fanin -algo dyn -threshold 100 -n 1000000 -proc 4
//   counters_demo -bench indegree2 -algo snzi:4 -n 100000
//   counters_demo -bench fanin -algo faa -n 1000000 -runs 5

#include <cstdio>
#include <string>

#include "harness/workloads.hpp"
#include "sched/runtime.hpp"
#include "snzi/stats.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
#include "util/topology.hpp"

int main(int argc, char** argv) {
  using namespace spdag;
  options opts(argc, argv);
  const std::string bench = opts.get_string("bench", "fanin");
  std::string algo = opts.get_string("algo", "dyn");
  const std::uint64_t n = static_cast<std::uint64_t>(opts.get_int("n", 1 << 20));
  const std::size_t procs = static_cast<std::size_t>(
      opts.get_int("proc", static_cast<std::int64_t>(hardware_core_count())));
  const int runs = static_cast<int>(opts.get_int("runs", 1));
  const std::uint64_t work_ns =
      static_cast<std::uint64_t>(opts.get_int("work-ns", 0));
  if (opts.has("threshold") && algo == "dyn") {
    algo = "dyn:" + std::to_string(opts.get_int("threshold", 100));
  }

  snzi::tree_stats stats;
  runtime rt(runtime_config{procs, algo, false, &stats});

  run_stats times;
  for (int r = 0; r < runs; ++r) {
    wall_timer t;
    if (bench == "fanin") {
      harness::fanin(rt, n, work_ns);
    } else if (bench == "indegree2") {
      harness::indegree2(rt, n, work_ns);
    } else if (bench == "fib") {
      harness::fib(rt, static_cast<unsigned>(n));
    } else {
      std::fprintf(stderr, "unknown bench '%s'\n", bench.c_str());
      return 1;
    }
    times.add(t.elapsed_s());
  }

  const auto& est = rt.engine().stats();
  const scheduler_totals sched = rt.sched().totals();

  std::printf("==========\n");
  std::printf("prog counters_demo\n");
  std::printf("bench %s\n", bench.c_str());
  std::printf("algo %s\n", rt.factory().name().c_str());
  std::printf("proc %zu\n", procs);
  std::printf("n %llu\n", static_cast<unsigned long long>(n));
  std::printf("work_ns %llu\n", static_cast<unsigned long long>(work_ns));
  std::printf("---\n");
  std::printf("runs %d\n", runs);
  std::printf("exectime %.4f\n", times.mean());
  std::printf("exectime_stddev %.4f\n", times.stddev());
  std::printf("ops_per_sec_per_core %.0f\n",
              static_cast<double>(harness::counter_ops(n)) / times.mean() /
                  static_cast<double>(procs));
  std::printf("nb_steals %llu\n", static_cast<unsigned long long>(sched.steals));
  std::printf("nb_vertices %llu\n",
              static_cast<unsigned long long>(est.vertices_created.load()));
  // Counters are pool cells, destroyed at release; a recycled cell is not
  // carved again, so this counts cells, not the counters built in them.
  std::printf("nb_counter_cells_carved %llu\n",
              static_cast<unsigned long long>(rt.factory().created()));
  // In-counter child pairs that grows installed fresh from the slab pool
  // (a released counter returns its pairs to the pool).
  std::printf("nb_incounter_pairs_grown %llu\n",
              static_cast<unsigned long long>(stats.grow_allocs.load()));
  std::printf("nb_snzi_arrives %llu\n",
              static_cast<unsigned long long>(stats.arrives.load() +
                                              stats.root_arrives.load()));
  std::printf("nb_cas_failures %llu\n",
              static_cast<unsigned long long>(stats.cas_failures.load()));
  std::printf("==========\n");
  return 0;
}
