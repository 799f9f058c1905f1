// perfbench: one benchmark for the dsketch pipeline.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--plant <kind>] [--small] [--lanes <n>] [--tmp-root <dir>]
//
// Prints the workload's figures as {"ledger": ...} lines, then one JSON
// result line: {"correct", "attempted", "failed", "metrics"} with the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Exits 1 when any checked output was wrong and 2 on an error, in which
// case no result line is printed.
#include <charconv>
#include <cmath>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::string number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("metric is not finite");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      opt.workload = value();
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (flag == "--trace") {
      opt.trace = value() == "1";
    } else if (flag == "--plant") {
      opt.plant = parse_plant(value());
    } else if (flag == "--small") {
      opt.small = true;
    } else if (flag == "--lanes") {
      opt.lanes = static_cast<unsigned>(std::stoul(value()));
    } else if (flag == "--tmp-root") {
      opt.tmp_root = value();
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (opt.seconds <= 0) throw std::runtime_error("--seconds must be positive");
  if (opt.lanes < 1 || opt.lanes > 64) throw std::runtime_error("--lanes must be 1..64");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    const std::map<std::string, std::function<void(RunContext&)>> workloads = {
        {"ship-er100k", run_ship},
        {"congest-er20k", run_congest},
        {"serve-uniform-er100k", run_serve},
        {"churn-zipf-er20k", run_churn},
    };
    const auto it = workloads.find(opt.workload);
    if (it == workloads.end()) {
      throw std::runtime_error("unknown --workload " + opt.workload);
    }
    Checker check(opt.plant);
    Tracer tracer(opt.trace);
    Report report;
    {
      const ScratchDir dir(opt.tmp_root);
      RunContext ctx{opt, check, tracer, report, dir.path()};
      it->second(ctx);
    }
    for (const auto* set : {&report.end_to_end(), &report.per_layer(), &report.ledger()}) {
      for (const Report::Entry& e : *set) {
        std::cout << "{\"ledger\": " << quoted(e.name) << ", \"value\": "
                  << number(e.value) << ", \"unit\": " << quoted(e.unit) << "}\n";
      }
    }
    const auto& metrics = opt.trace ? report.per_layer() : report.end_to_end();
    std::string out = "{\"correct\": ";
    out += check.failed() == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(check.attempted());
    out += ", \"failed\": " + std::to_string(check.failed());
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      if (i > 0) out += ", ";
      out += quoted(metrics[i].name) + ": {\"value\": " + number(metrics[i].value) +
             ", \"unit\": " + quoted(metrics[i].unit) + "}";
    }
    out += "}}";
    std::cout << out << std::endl;
    return check.failed() == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
