// Shared pieces of the benchmark program: run options, the seeded input
// plan, the result record every workload fills in, and small statistics
// and process helpers.
#ifndef KGC_PERFBENCH_COMMON_H_
#define KGC_PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// TinySpec inputs and a short window: the self-test mode.
  bool smoke = false;
  /// Path of the shipped kgc_serve binary (serve_* workloads).
  std::string serve_bin;
  /// Compute reeval reference values for this seed instead of measuring.
  bool emit_reference = false;
  /// Identity of the code under test, supplied by run.py (the checkout the
  /// benchmark runs in need not be a git repository).
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

// Paths, relative to the checkout root kgc_perfbench runs in. Relative paths
// keep the server's socket path well inside the sun_path limit.
/// Registries, sockets and server logs of a run (removed at exit).
inline constexpr char kWorkDir[] = ".bench_work";
/// The full result record and the trace of each run.
inline constexpr char kOutDir[] = ".bench_out";
/// Reference values for the reeval output check.
inline constexpr char kReferencePath[] = "perfbench/reference.json";

/// Every seed a run derives from its workload seed, so the record names the
/// exact inputs (the generator hands back what it used, as Katana's
/// CreateGenerator does).
struct InputSeeds {
  uint64_t workload = 0;
  uint64_t data = 0;      ///< GenerateKg
  uint64_t train = 0;     ///< TrainModel / StreamIngestor
  uint64_t queries = 0;   ///< query pool / fresh query stream
  uint64_t arrivals = 0;  ///< open-loop Poisson schedule
  uint64_t ingest = 0;    ///< held-out triples streamed through IngestBatch
};

/// Derives the per-purpose seeds from the workload seed.
InputSeeds MakeInputSeeds(uint64_t workload_seed);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `checks` lists every output check that
/// ran with its verdict; a failed check makes the run incorrect.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  /// Extra "key": value JSON members for the full record (sample counts,
  /// failure breakdowns, ScaleSpec, ...). Values are rendered JSON.
  std::vector<std::pair<std::string, std::string>> details;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void Check(const std::string& name, bool ok) { checks.emplace_back(name, ok); }
  void Detail(const std::string& key, const std::string& json) {
    details.emplace_back(key, json);
  }
  bool correct() const;
};

// --- statistics -----------------------------------------------------------

double Median(std::vector<double> values);
/// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// --- process helpers ------------------------------------------------------

/// Seconds on the steady clock since an arbitrary fixed origin.
double NowSeconds();
/// Peak resident set (VmHWM) of `pid` in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid);
/// Current process' peak resident set in MiB.
double SelfPeakRssMb();
/// Machine-wide CPU time from /proc/stat, in clock ticks.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
/// Share of CPU time the hypervisor stole between two readings (a noise
/// indicator recorded with every run; 0 on bare metal).
double StealFraction(const CpuTicks& before, const CpuTicks& after);
/// Creates `path` and its parents.
bool MakeDirs(const std::string& path);
/// Removes `path` recursively (ignores errors).
void RemoveTree(const std::string& path);

// --- JSON rendering -------------------------------------------------------

std::string JsonString(const std::string& s);
/// Full-precision number (NaN/inf render as null).
std::string JsonNumber(double v);

/// The run envelope: build, machine, kernel path, threads and seeds.
std::string EnvelopeJson(const RunOptions& options, const InputSeeds& seeds);

}  // namespace perfbench

#endif  // KGC_PERFBENCH_COMMON_H_
