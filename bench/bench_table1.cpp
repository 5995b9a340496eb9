// Table I reproduction: runtime of the four implementations on six graphs
// (R-MAT stand-ins for the SNAP/Friendster datasets at 1/GEE_BENCH_SCALE),
// K = 50, 10% labels, plus the paper's three speedup columns.
//
// Paper reference values (24-core Xeon 8259CL, full-size graphs):
//   Twitch          12.18 / 0.20 / 0.11 / 0.013   (936x, 15x, 8.5x)
//   Friendster      3374  / 112  / 77   / 6.42    (525x, 17x, 12x)
// Expect the same ordering and comparable ratios, not absolute equality:
// the interpreted stand-in is leaner than CPython (see DESIGN.md section 3).
#include "bench/common.hpp"

#include "graph/validation.hpp"
#include "util/log.hpp"

int main() {
  using gee::core::Backend;
  namespace bench = gee::bench;

  gee::util::TextTable table(
      "Table I -- GEE runtime (seconds), K=50, 10% labels, scale 1/" +
      std::to_string(bench::scale_denominator()));
  table.set_header({"graph (n, m)", "interpreted", "compiled", "ligra-serial",
                    "ligra-parallel", "vs interp", "vs compiled",
                    "vs ligra-serial"});

  std::uint64_t seed = 42;
  for (const auto& workload : bench::table1_workloads()) {
    gee::util::log_info("table1: generating " + workload.name);
    const auto prepared = bench::prepare(workload, seed++);

    const double interpreted =
        bench::skip_interpreted()
            ? 0.0
            : bench::time_backend(prepared, Backend::kInterpreted);
    const double compiled =
        bench::time_backend(prepared, Backend::kCompiledSerial);
    const double ligra_serial =
        bench::time_backend(prepared, Backend::kLigraSerial);
    const double parallel =
        bench::time_backend(prepared, Backend::kLigraParallel);

    table.begin_row();
    table.cell(workload.name + " (" + gee::util::format_count(workload.n) +
               ", " + gee::util::format_count(workload.m) + ")");
    table.cell(interpreted > 0 ? gee::util::format_double(interpreted, 4)
                               : std::string("-"));
    table.cell(compiled, 4);
    table.cell(ligra_serial, 4);
    table.cell(parallel, 4);
    table.cell(interpreted > 0
                   ? gee::util::format_double(interpreted / parallel, 3)
                   : std::string("-"));
    table.cell(compiled / parallel, 3);
    table.cell(ligra_serial / parallel, 3);
  }

  bench::emit(table, "table1.csv");
  return 0;
}
