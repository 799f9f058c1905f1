// Shared plumbing of the pipeline benchmark: options, timing, the
// answer checker with its planted faults, the benchmark's own layer spans,
// the metric report, and the per-run scratch directory.
//
// Nothing here calls into dsketch: this file is the benchmark's side of
// every boundary, so the checks and spans stay independent of the code
// they measure.
#pragma once

#include <chrono>
#include <functional>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A wrong answer the benchmark's own tests inject to prove a check bites.
enum class Plant { kNone, kUnderestimate, kStretch, kHeapMmap, kLabel, kService };

Plant parse_plant(const std::string& name);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Plant plant = Plant::kNone;
  bool small = false;   ///< test-sized inputs (the planted-fault tests)
  unsigned lanes = 1;   ///< lanes for every pool; gated runs use 1
  std::string tmp_root = ".bench_build/tmp";
};

/// Counts checked outputs and wrong ones. A planted fault corrupts the
/// first output of its kind that reaches a check, exactly once.
class Checker {
 public:
  explicit Checker(Plant plant) : plant_(plant) {}

  /// True exactly once, for the first check site of the planted kind.
  bool plant(Plant kind);
  /// Records one checked output; `what` names the failure on stderr.
  void expect(bool ok, std::string_view what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  Plant plant_;
  bool planted_ = false;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The layers of dsketch (its modules under src/) that spans attribute
/// time to.
enum class Layer { kGraph, kSketch, kCongest, kServe, kDynamics, kCount };

/// The benchmark's own tracer: spans around each call into a layer,
/// recorded only while tracing is on and a timed window is open. The
/// program's obs::TraceSession is never involved.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  class Span {
   public:
    Span(Tracer& tracer, Layer layer, const char* name)
        : tracer_(tracer.on_ && tracer.window_open_ ? &tracer : nullptr),
          layer_(layer),
          name_(name) {
      if (tracer_ != nullptr) start_ = Clock::now();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
      if (tracer_ != nullptr) tracer_->record(layer_, name_, seconds_since(start_));
    }

   private:
    Tracer* tracer_;
    Layer layer_;
    const char* name_;
    Clock::time_point start_{};
  };

  bool on() const { return on_; }
  /// Opens / closes the timed window; spans outside it are not kept.
  void open() { window_open_ = true; }
  void close() { window_open_ = false; }

  /// Mean seconds of the spans named `name` (0 when none).
  double mean_s(const std::string& name) const;
  double layer_s(Layer layer) const {
    return layer_s_[static_cast<int>(layer)];
  }
  std::uint64_t spans() const { return spans_; }

  /// Cost of one span on this host, measured by timing empty spans.
  static double span_cost_s();

 private:
  struct Stat {
    double total = 0;
    std::uint64_t count = 0;
  };
  void record(Layer layer, const char* name, double s);

  bool on_;
  bool window_open_ = false;
  std::uint64_t spans_ = 0;
  double layer_s_[static_cast<int>(Layer::kCount)] = {};
  std::map<std::string, Stat, std::less<>> stats_;
};

/// Metrics of one run. The end-to-end set feeds the final JSON line of an
/// untraced run and the per-layer set that of a traced run; the ledger
/// holds every figure of the workload, printed as lines before it.
class Report {
 public:
  void end_to_end(const std::string& name, double value, const std::string& unit);
  void per_layer(const std::string& name, double value, const std::string& unit);
  /// A workload-specific figure: printed, not part of the JSON line.
  void ledger(const std::string& name, double value, const std::string& unit);

  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<Entry>& end_to_end() const { return e2e_; }
  const std::vector<Entry>& per_layer() const { return layer_; }
  const std::vector<Entry>& ledger() const { return ledger_; }

 private:
  std::vector<Entry> e2e_, layer_, ledger_;
};

/// The workload's whole verdict: its report plus its checker.
struct RunContext {
  const Options& opt;
  Checker& check;
  Tracer& tracer;
  Report& report;
  std::string dir;  ///< this run's private scratch directory
};

/// A fresh directory under `root`, made with mkdtemp and removed with all
/// its contents when the object dies, so no two runs share a file.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& root);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Median of `v` (0 for an empty vector).
double median(std::vector<double> v);
/// q-quantile (0..1) of `v` by nearest rank (0 for an empty vector).
double quantile(std::vector<double> v, double q);
/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// Seeded 64-bit generator (splitmix64) for the benchmark's own inputs.
class Rand {
 public:
  explicit Rand(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// Derives an independent seed for one purpose from the run seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  Rand r(seed * 0x100000001b3ULL ^ salt);
  return r.next();
}

}  // namespace perfbench
