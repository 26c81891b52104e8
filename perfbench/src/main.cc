// kgc_perfbench: the benchmark program behind perfbench/run.py.
//
//   kgc_perfbench --workload=reeval|serve_closed|serve_rotate --seed=N
//                 --seconds=S --trace=0|1 [--smoke] [--serve-bin=PATH]
//                 [--git-sha=SHA] [--source-digest=HEX]
//   kgc_perfbench --workload=reeval --seed=N --emit-reference [--smoke]
//
// Prints one "metric <name> <value> <unit>" line per metric, one
// "check <name> ok|FAILED" line per output check, and as the last line the
// result object {"correct", "attempted", "failed", "metrics"}. The full
// record (run envelope, details, checks) goes to .bench_out; with --trace=1
// the span trace goes there too. Exit 0 when the run completed (even if a
// check failed: "correct" says so), 2 on usage errors, 1 on set-up errors.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::JsonNumber;
using perfbench::JsonString;
using perfbench::RunOptions;
using perfbench::RunResult;

bool ParseFlag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

std::string RecordJson(const RunOptions& options,
                       const perfbench::InputSeeds& seeds,
                       const RunResult& result) {
  std::string json = "{\n  \"schema\": \"kgc.perfbench_run.v1\"";
  json += ",\n  \"workload\": " + JsonString(options.workload);
  json += ",\n  \"trace\": " + std::string(options.trace ? "true" : "false");
  json += ",\n  \"smoke\": " + std::string(options.smoke ? "true" : "false");
  json += ",\n  \"seconds\": " + JsonNumber(options.seconds);
  json += ",\n  \"env\": " + perfbench::EnvelopeJson(options, seeds);
  json += ",\n  \"correct\": " + std::string(result.correct() ? "true" : "false");
  json += ",\n  \"attempted\": " + std::to_string(result.attempted);
  json += ",\n  \"failed\": " + std::to_string(result.failed);
  json += ",\n  \"checks\": {";
  for (size_t i = 0; i < result.checks.size(); ++i) {
    json += (i ? ", " : "") + JsonString(result.checks[i].first) + ": " +
            (result.checks[i].second ? "true" : "false");
  }
  json += "}";
  for (const auto& [key, value] : result.details) {
    json += ",\n  " + JsonString(key) + ": " + value;
  }
  json += ",\n  \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    json += std::string(i ? "," : "") + "\n    " + JsonString(m.name) +
            ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return json + "\n  }\n}\n";
}

std::string ResultLine(const RunResult& result) {
  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    json += (i ? ", " : "") + JsonString(m.name) + ": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return json + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (ParseFlag(arg, "workload", &value)) {
      options.workload = value;
    } else if (ParseFlag(arg, "seed", &value)) {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (ParseFlag(arg, "seconds", &value)) {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (ParseFlag(arg, "trace", &value)) {
      options.trace = value == "1";
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--emit-reference") {
      options.emit_reference = true;
    } else if (ParseFlag(arg, "serve-bin", &value)) {
      options.serve_bin = value;
    } else if (ParseFlag(arg, "git-sha", &value)) {
      options.git_sha = value;
    } else if (ParseFlag(arg, "source-digest", &value)) {
      options.source_digest = value;
    } else {
      std::fprintf(stderr, "kgc_perfbench: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (options.seconds <= 0) {
    std::fprintf(stderr, "kgc_perfbench: --seconds must be > 0\n");
    return 2;
  }
  const perfbench::InputSeeds seeds = perfbench::MakeInputSeeds(options.seed);

  if (options.emit_reference) {
    if (options.workload != "reeval") {
      std::fprintf(stderr, "kgc_perfbench: --emit-reference is reeval-only\n");
      return 2;
    }
    return perfbench::EmitReevalReference(options, seeds);
  }

  perfbench::Tracer::Get().Enable(options.trace);
  RunResult result;
  if (options.workload == "reeval") {
    result = perfbench::RunReeval(options, seeds);
  } else if (options.workload == "serve_closed" ||
             options.workload == "serve_rotate") {
    if (options.serve_bin.empty()) {
      std::fprintf(stderr, "kgc_perfbench: %s needs --serve-bin\n",
                   options.workload.c_str());
      return 2;
    }
    result = perfbench::RunServe(options, seeds);
  } else {
    std::fprintf(stderr, "kgc_perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  if (result.metrics.empty()) return 1;  // set-up failed; already reported

  for (const perfbench::Metric& m : result.metrics) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const auto& [name, ok] : result.checks) {
    std::printf("check %s %s\n", name.c_str(), ok ? "ok" : "FAILED");
  }
  const std::string stem = std::string(perfbench::kOutDir) + "/" +
                           options.workload +
                           "-seed" + std::to_string(options.seed) +
                           (options.trace ? "-trace" : "");
  if (perfbench::MakeDirs(perfbench::kOutDir)) {
    if (std::FILE* out = std::fopen((stem + ".json").c_str(), "w")) {
      std::fputs(RecordJson(options, seeds, result).c_str(), out);
      std::fclose(out);
    }
    if (options.trace) {
      perfbench::Tracer::Get().WriteChromeTrace(stem + ".trace.json");
    }
  }
  std::printf("%s\n", ResultLine(result).c_str());
  std::fflush(stdout);
  return 0;
}
