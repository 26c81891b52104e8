#include "common.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <thread>

#include "util/parallel.h"
#include "util/rng.h"
#include "util/vecmath.h"

namespace perfbench {

InputSeeds MakeInputSeeds(uint64_t workload_seed) {
  InputSeeds seeds;
  seeds.workload = workload_seed;
  uint64_t state = workload_seed ^ 0x6b67632d62656e63ULL;  // "kgc-benc"
  seeds.data = kgc::SplitMix64(state);
  seeds.train = kgc::SplitMix64(state);
  seeds.queries = kgc::SplitMix64(state);
  seeds.arrivals = kgc::SplitMix64(state);
  seeds.ingest = kgc::SplitMix64(state);
  return seeds;
}

bool RunResult::correct() const {
  if (checks.empty()) return false;
  for (const auto& [name, ok] : checks) {
    if (!ok) return false;
  }
  return true;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  return values[index];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double VmHwmMb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t begin = colon + 1;
        while (begin < line.size() && line[begin] == ' ') ++begin;
        return line.substr(begin);
      }
    }
  }
  return "unknown";
}

}  // namespace

double PeakRssMb(pid_t pid) {
  return VmHwmMb("/proc/" + std::to_string(pid) + "/status");
}

double SelfPeakRssMb() { return VmHwmMb("/proc/self/status"); }

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // "cpu": user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8 && in; ++field) {
    uint64_t value = 0;
    in >> value;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealFraction(const CpuTicks& before, const CpuTicks& after) {
  const uint64_t total = after.total - before.total;
  return total > 0 ? static_cast<double>(after.steal - before.steal) /
                         static_cast<double>(total)
                   : 0.0;
}

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string EnvelopeJson(const RunOptions& options, const InputSeeds& seeds) {
  namespace vec = kgc::vec;
  const bool native =
      vec::NativeKernelsAvailable() &&
      &vec::Ops() == &vec::OpsFor(vec::KernelPath::kNative);
  const char* kgc_threads_env = std::getenv("KGC_THREADS");
  std::string json = "{";
  json += "\"schema\": \"kgc.bench_env.v1\"";
  json += ", \"git_sha\": " + JsonString(options.git_sha);
  json += ", \"source_digest\": " + JsonString(options.source_digest);
  json += ", \"build_type\": " + JsonString(KGC_BENCH_BUILD_TYPE);
  json += ", \"compiler\": " + JsonString(KGC_BENCH_COMPILER);
  json += ", \"kgc_kernel\": " + JsonString(native ? "native" : "generic");
  json += ", \"kgc_kernel_env\": " +
          JsonString(std::getenv("KGC_KERNEL") ? std::getenv("KGC_KERNEL")
                                                : "");
  json += ", \"cpu_model\": " + JsonString(CpuModel());
  json += ", \"nproc\": " +
          std::to_string(std::thread::hardware_concurrency());
  json += ", \"kgc_threads\": " +
          std::to_string(kgc::DefaultThreadCount());
  json += ", \"kgc_threads_env\": " +
          JsonString(kgc_threads_env ? kgc_threads_env : "");
  json += ", \"seeds\": {";
  json += "\"workload\": " + std::to_string(seeds.workload);
  json += ", \"data\": " + std::to_string(seeds.data);
  json += ", \"train\": " + std::to_string(seeds.train);
  json += ", \"queries\": " + std::to_string(seeds.queries);
  json += ", \"arrivals\": " + std::to_string(seeds.arrivals);
  json += ", \"ingest\": " + std::to_string(seeds.ingest);
  json += "}}";
  return json;
}

}  // namespace perfbench
