#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <system_error>

namespace perfbench {

Plant parse_plant(const std::string& name) {
  if (name.empty() || name == "none") return Plant::kNone;
  if (name == "underestimate") return Plant::kUnderestimate;
  if (name == "stretch") return Plant::kStretch;
  if (name == "heap-mmap") return Plant::kHeapMmap;
  if (name == "label") return Plant::kLabel;
  if (name == "service") return Plant::kService;
  throw std::runtime_error("unknown --plant kind: " + name);
}

bool Checker::plant(Plant kind) {
  if (kind != plant_ || planted_) return false;
  planted_ = true;
  return true;
}

void Checker::expect(bool ok, std::string_view what) {
  ++attempted_;
  if (ok) return;
  if (++failed_ <= 10) std::cerr << "check failed: " << what << "\n";
}

void Tracer::record(Layer layer, const char* name, double s) {
  ++spans_;
  layer_s_[static_cast<int>(layer)] += s;
  auto it = stats_.find(std::string_view(name));
  if (it == stats_.end()) it = stats_.emplace(name, Stat{}).first;
  it->second.total += s;
  ++it->second.count;
}

double Tracer::mean_s(const std::string& name) const {
  const auto it = stats_.find(name);
  return it == stats_.end() || it->second.count == 0
             ? 0.0
             : it->second.total / static_cast<double>(it->second.count);
}

double Tracer::span_cost_s() {
  constexpr int kSpans = 200000;
  Tracer probe(true);
  probe.open();
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    Span s(probe, Layer::kGraph, "calibration");
  }
  return seconds_since(t0) / kSpans;
}

void Report::end_to_end(const std::string& name, double value,
                        const std::string& unit) {
  e2e_.push_back({name, value, unit});
}

void Report::per_layer(const std::string& name, double value,
                       const std::string& unit) {
  layer_.push_back({name, value, unit});
}

void Report::ledger(const std::string& name, double value,
                    const std::string& unit) {
  ledger_.push_back({name, value, unit});
}

ScratchDir::ScratchDir(const std::string& root) {
  std::filesystem::create_directories(root);
  std::string templ = root + "/run-XXXXXX";
  if (mkdtemp(templ.data()) == nullptr) {
    throw std::runtime_error("mkdtemp failed under " + root);
  }
  path_ = templ;
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
