// serve_closed / serve_rotate: the shipped kgc_serve binary driven over its
// socket.
//
// Set-up (repeated, median reported): generate ScaleSpec(10000), publish a
// TransE generation 0 through StreamIngestor::Bootstrap, start kgc_serve on
// that registry and wait for its READY line. The server runs its shipped
// defaults: every KGC_SERVE_* variable is removed from its environment.
//
//   serve_closed  4 closed-loop connections over a 128-query pool (K=10,
//                 25% classification), expected reply CRCs precomputed from
//                 the served generation as kgc_load does.
//   serve_rotate  open-loop Poisson arrivals at a fixed rate, pipelined over
//                 2 connections, every query drawn fresh from the test
//                 split; a benchmark thread streams held-out train triples
//                 through StreamIngestor::IngestBatch (threads = 1) every
//                 few seconds, so the server repins under load. Latency
//                 counts from the intended send time. After the window
//                 every OK reply is checked against the generation it names.
//
// The traced run measures two half windows: one against a server without
// telemetry and one against a server restarted with its metrics exporter on
// while the client records per-request spans; their latency ratio is the
// tracing overhead.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "datagen/generator.h"
#include "datagen/presets.h"
#include "eval/topk.h"
#include "eval/triple_classification.h"
#include "obs/json_parse.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "snapshot/snapshot_registry.h"
#include "snapshot/stream_ingestor.h"
#include "trace.h"
#include "util/crc32.h"
#include "util/file_util.h"
#include "util/rng.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {

namespace {

using kgc::Dataset;
using kgc::LoadedGeneration;
using kgc::SnapshotRegistry;
using kgc::serve::Reply;
using kgc::serve::ReplyStatus;
using kgc::serve::Request;
using kgc::serve::RequestType;

// The committed BENCH_serving.json mix.
constexpr int kPoolSize = 128;
constexpr uint32_t kK = 10;
constexpr double kClassifyFrac = 0.25;
constexpr int kClosedConnections = 4;
constexpr int kRotateConnections = 2;
/// serve_rotate's offered rate: about half of serve_closed's saturation.
constexpr double kRotateRate = 500.0;
constexpr double kSmokeRotateRate = 200.0;
/// A request is on time when answered OK within this, from its send (closed
/// loop) or intended send (open loop) time.
constexpr double kLatencyLimitS = 0.010;
/// The open-loop sender is behind schedule (the run is invalid) when its
/// p99 send lateness exceeds this.
constexpr double kSenderLateLimitS = kLatencyLimitS;
constexpr int kSetupReps = 3;
constexpr int kBootstrapEpochs = 6;  // kgc_serve's --bootstrap-epochs default
constexpr int kIngestEpochs = 2;
constexpr int kIngestBatches = 24;
constexpr size_t kIngestBatchTriples = 250;
constexpr size_t kSmokeIngestBatchTriples = 10;
constexpr double kIngestFirstS = 1.0;
constexpr double kIngestIntervalS = 4.0;
constexpr double kWarmupS = 2.0;
constexpr double kReplyDrainS = 5.0;

// --- kgc_serve child process ----------------------------------------------

bool FileContains(const std::string& path, const std::string& needle) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str().find(needle) != std::string::npos;
}

/// One kgc_serve process. Stop() (also run by the destructor) sends
/// SIGTERM, waits for the drain, and SIGKILLs after a grace period.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts the server and waits for READY. `telemetry_stem` non-empty
  /// turns on its metrics exporter (<stem>.timeseries.jsonl, run report at
  /// <stem>.report.jsonl).
  bool Start(const std::string& bin, const std::string& registry,
             const std::string& socket, const std::string& log_stem,
             const std::string& telemetry_stem) {
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string var = *e;
      if (var.rfind("KGC_SERVE_", 0) == 0 || var.rfind("KGC_METRICS", 0) == 0 ||
          var.rfind("KGC_TIMESERIES=", 0) == 0 ||
          var.rfind("KGC_EXPOSITION=", 0) == 0 ||
          var.rfind("KGC_FAULTS=", 0) == 0 || var.rfind("KGC_TRACE=", 0) == 0) {
        continue;
      }
      env.push_back(var);
    }
    if (!telemetry_stem.empty()) {
      env.push_back("KGC_METRICS_INTERVAL_MS=100");
      env.push_back("KGC_TIMESERIES=" + telemetry_stem + ".timeseries.jsonl");
      env.push_back("KGC_EXPOSITION=" + telemetry_stem + ".prom");
      env.push_back("KGC_METRICS=" + telemetry_stem + ".report.jsonl");
    }
    std::vector<std::string> args = {bin, "--snapshot-dir=" + registry,
                                     "--socket=" + socket};
    std::vector<char*> argv, envp;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    for (std::string& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);
    stdout_path_ = log_stem + ".out";
    const std::string stderr_path = log_stem + ".err";

    const int out_fd =
        ::open(stdout_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int err_fd =
        ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out_fd < 0 || err_fd < 0) {
      if (out_fd >= 0) ::close(out_fd);
      if (err_fd >= 0) ::close(err_fd);
      std::fprintf(stderr, "perfbench: cannot open server logs %s\n",
                   log_stem.c_str());
      return false;
    }
    pid_ = ::fork();
    if (pid_ == 0) {
      // Dies with kgc_perfbench (forks happen on the main thread, whose exit
      // is the process' exit).
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(out_fd, STDOUT_FILENO);
      ::dup2(err_fd, STDERR_FILENO);
      ::execve(argv[0], argv.data(), envp.data());
      ::_exit(127);
    }
    ::close(out_fd);
    ::close(err_fd);
    if (pid_ < 0) {
      std::perror("perfbench: fork");
      return false;
    }
    const double deadline = NowSeconds() + 120.0;
    while (NowSeconds() < deadline) {
      if (FileContains(stdout_path_, "READY ")) return true;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        std::fprintf(stderr, "perfbench: kgc_serve exited before READY "
                     "(see %s)\n", stderr_path.c_str());
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::fprintf(stderr, "perfbench: kgc_serve not READY within 120 s\n");
    Stop();
    return false;
  }

  double PeakRss() const { return pid_ > 0 ? PeakRssMb(pid_) : 0.0; }

  /// Returns true when the server drained and exited 0.
  bool Stop() {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool exited = false;
    const double deadline = NowSeconds() + 15.0;
    while (NowSeconds() < deadline) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        exited = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!exited) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
  std::string stdout_path_;
};

// --- client plumbing -------------------------------------------------------

/// Connects and confirms liveness with a ping round-trip; -1 on failure.
int ConnectAndPing(const std::string& socket) {
  auto fd = kgc::serve::ConnectUnix(socket);
  if (!fd.ok()) return -1;
  Request ping;
  ping.type = RequestType::kPing;
  if (!kgc::serve::WriteFrame(*fd, kgc::serve::EncodeRequest(ping), 2000)
           .ok() ||
      !kgc::serve::ReadFrame(*fd, 2000).ok()) {
    ::close(*fd);
    return -1;
  }
  return *fd;
}

uint32_t BodyCrc(const std::string& payload) {
  return kgc::Crc32(payload.data() + kgc::serve::kReplyHeaderBytes,
                    payload.size() - kgc::serve::kReplyHeaderBytes);
}

/// What became of one request.
enum class Outcome : uint8_t {
  kPending = 0,  ///< never answered (transport error or drain timeout)
  kOk,
  kMismatch,  ///< OK reply whose body differs from the oracle
  kOverloaded,
  kDeadlineExceeded,
  kMalformed,
  kUnavailable,
  kInternal,
  kTransport,
  kBadReply,
};

const char* OutcomeName(Outcome o) {
  switch (o) {
    case Outcome::kPending: return "unanswered";
    case Outcome::kOk: return "ok";
    case Outcome::kMismatch: return "mismatch";
    case Outcome::kOverloaded: return "overloaded";
    case Outcome::kDeadlineExceeded: return "deadline_exceeded";
    case Outcome::kMalformed: return "malformed";
    case Outcome::kUnavailable: return "unavailable";
    case Outcome::kInternal: return "internal";
    case Outcome::kTransport: return "transport_error";
    case Outcome::kBadReply: return "bad_reply";
  }
  return "?";
}

Outcome FromStatus(ReplyStatus status) {
  switch (status) {
    case ReplyStatus::kOk: return Outcome::kOk;
    case ReplyStatus::kOverloaded: return Outcome::kOverloaded;
    case ReplyStatus::kDeadlineExceeded: return Outcome::kDeadlineExceeded;
    case ReplyStatus::kMalformed: return Outcome::kMalformed;
    case ReplyStatus::kUnavailable: return Outcome::kUnavailable;
    case ReplyStatus::kInternal: return Outcome::kInternal;
  }
  return Outcome::kBadReply;
}

/// One request's record. The sender fills the send fields, exactly one
/// reader fills the reply fields.
struct RequestRecord {
  double intended_s = 0.0;  ///< open loop: scheduled send time
  double sent_s = 0.0;
  double replied_s = 0.0;
  Outcome outcome = Outcome::kPending;
  int64_t generation = -1;
  uint32_t crc = 0;
  uint32_t query = 0;  ///< index into the query list
};

/// Summary of one measured window.
struct WindowStats {
  std::vector<RequestRecord> records;
  double start_s = 0.0;
  double end_s = 0.0;  ///< last reply (or drain timeout)
  std::vector<double> sender_late_s;  ///< open loop only
};

// --- queries and their oracle ---------------------------------------------

/// Expected reply-body CRCs of `queries` under `gen`: one TopKEngine run
/// and thresholds fitted with the server's classification seed, exactly
/// the server's scoring path (results are thread-count invariant).
std::vector<uint32_t> ExpectedCrcs(const LoadedGeneration& gen,
                                   const std::vector<Request>& queries) {
  std::vector<uint32_t> crcs(queries.size(), 0);
  std::vector<size_t> topk_slots, classify_slots;
  std::vector<kgc::TopKQuery> topk;
  std::vector<kgc::Triple> triples;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Request& r = queries[i];
    if (r.type == RequestType::kTopK) {
      kgc::TopKQuery q;
      q.tails = r.tails;
      q.relation = r.relation;
      q.anchor = r.anchor;
      topk.push_back(q);
      topk_slots.push_back(i);
    } else {
      triples.push_back(r.triple);
      classify_slots.push_back(i);
    }
  }
  if (!topk.empty()) {
    kgc::TopKOptions options;
    options.k = static_cast<int>(kK);
    const kgc::TopKEngine engine(*gen.model, options);
    const auto results = engine.Run(topk, &gen.dataset.all_store());
    for (size_t j = 0; j < topk.size(); ++j) {
      std::string body;
      kgc::serve::AppendTopKBody(results[j].filtered, &body);
      crcs[topk_slots[j]] = kgc::Crc32(body.data(), body.size());
    }
  }
  if (!triples.empty()) {
    kgc::TripleClassificationOptions copt;
    copt.seed = kgc::serve::ServeOptions{}.classify_seed;
    const auto thresholds =
        kgc::FitClassificationThresholds(*gen.model, gen.dataset, copt);
    const auto classified =
        kgc::ClassifyTriples(*gen.model, thresholds, triples);
    for (size_t j = 0; j < triples.size(); ++j) {
      std::string body;
      kgc::serve::AppendClassifyBody(
          static_cast<float>(classified[j].score), classified[j].label,
          static_cast<float>(classified[j].threshold), &body);
      crcs[classify_slots[j]] = kgc::Crc32(body.data(), body.size());
    }
  }
  return crcs;
}

/// kgc_load's pool: uniform anchors and relations, filtered top-K. The mix
/// is fixed (exactly kClassifyFrac classification, half of the top-K
/// queries on tails) so that seeds vary the queries, not the work mix.
std::vector<Request> MakePool(const Dataset& data, uint64_t seed) {
  kgc::Rng rng(seed);
  std::vector<Request> pool(kPoolSize);
  const auto ne = static_cast<uint64_t>(data.num_entities());
  const auto nr = static_cast<uint64_t>(data.num_relations());
  const size_t classify = static_cast<size_t>(kPoolSize * kClassifyFrac);
  for (size_t i = 0; i < pool.size(); ++i) {
    Request& r = pool[i];
    if (i < classify) {
      r.type = RequestType::kClassify;
      r.triple.head = static_cast<kgc::EntityId>(rng.Uniform(ne));
      r.triple.relation = static_cast<kgc::RelationId>(rng.Uniform(nr));
      r.triple.tail = static_cast<kgc::EntityId>(rng.Uniform(ne));
    } else {
      r.type = RequestType::kTopK;
      r.tails = (i - classify) % 2 == 0;
      r.filtered = true;
      r.relation = static_cast<kgc::RelationId>(rng.Uniform(nr));
      r.anchor = static_cast<kgc::EntityId>(rng.Uniform(ne));
      r.k = kK;
    }
  }
  rng.Shuffle(pool);
  return pool;
}

/// Fresh queries drawn from the test split, one per arrival.
std::vector<Request> MakeFreshQueries(const Dataset& data, size_t n,
                                      uint64_t seed) {
  kgc::Rng rng(seed);
  std::vector<Request> queries(n);
  const auto& test = data.test();
  for (Request& r : queries) {
    const kgc::Triple& t = test[rng.Uniform(test.size())];
    if (rng.Bernoulli(kClassifyFrac)) {
      r.type = RequestType::kClassify;
      r.triple = t;
    } else {
      r.type = RequestType::kTopK;
      r.tails = rng.Bernoulli(0.5);
      r.filtered = true;
      r.relation = t.relation;
      r.anchor = r.tails ? t.head : t.tail;
      r.k = kK;
    }
  }
  return queries;
}

/// Poisson arrival offsets (seconds from window start) covering `seconds`.
std::vector<double> PoissonOffsets(double rate, double seconds,
                                   uint64_t seed) {
  kgc::Rng rng(seed);
  std::vector<double> offsets;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.UniformDouble()) / rate;
    if (t >= seconds) break;
    offsets.push_back(t);
  }
  return offsets;
}

// --- load generators --------------------------------------------------------

/// Reads one reply and classifies it; fills `record` (not its query).
void ReadReply(const std::string& payload, RequestType type, uint64_t id,
               RequestRecord& record) {
  Reply reply;
  kgc::Status decoded;
  {
    Span span("client.decode", id);
    decoded = kgc::serve::DecodeReply(payload, type, &reply);
  }
  if (!decoded.ok() || reply.id != id) {
    record.outcome = Outcome::kBadReply;
    return;
  }
  record.outcome = FromStatus(reply.status);
  record.generation = reply.generation;
  if (reply.status == ReplyStatus::kOk) record.crc = BodyCrc(payload);
}

std::string EncodeTraced(const Request& request) {
  Span span("client.encode", request.id);
  return kgc::serve::EncodeRequest(request);
}

/// Closed loop: `connections` threads, each sending its next pool query as
/// soon as the previous reply arrives, until `seconds` elapse.
WindowStats ClosedLoop(const std::string& socket,
                       const std::vector<Request>& pool, int connections,
                       double seconds, uint64_t id_base) {
  WindowStats stats;
  std::vector<std::vector<RequestRecord>> per_thread(
      static_cast<size_t>(connections));
  stats.start_s = NowSeconds();
  const double stop_at = stats.start_s + seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      std::vector<RequestRecord>& records = per_thread[static_cast<size_t>(c)];
      int fd = ConnectAndPing(socket);
      // Stagger the threads' starting offsets through the pool.
      size_t cursor = static_cast<size_t>(c) * 17;
      uint64_t next_id = id_base + (static_cast<uint64_t>(c) << 32) + 1;
      while (NowSeconds() < stop_at) {
        RequestRecord record;
        record.query = static_cast<uint32_t>(cursor++ % pool.size());
        Request request = pool[record.query];
        request.id = next_id++;
        Span span("client.request", request.id);
        record.sent_s = NowSeconds();
        if (fd < 0) {
          record.outcome = Outcome::kTransport;
          records.push_back(record);
          fd = ConnectAndPing(socket);
          continue;
        }
        const std::string frame = EncodeTraced(request);
        kgc::StatusOr<std::string> payload =
            kgc::serve::WriteFrame(fd, frame, 2000).ok()
                ? kgc::serve::ReadFrame(fd, 5000)
                : kgc::StatusOr<std::string>(kgc::Status::IoError("write"));
        record.replied_s = NowSeconds();
        if (!payload.ok()) {
          record.outcome = Outcome::kTransport;
          ::close(fd);
          fd = ConnectAndPing(socket);
        } else {
          ReadReply(*payload, request.type, request.id, record);
        }
        records.push_back(record);
      }
      if (fd >= 0) ::close(fd);
    });
  }
  for (std::thread& t : threads) t.join();
  stats.end_s = stats.start_s;
  for (auto& records : per_thread) {
    for (const RequestRecord& r : records) {
      stats.end_s = std::max(stats.end_s, r.replied_s);
    }
    stats.records.insert(stats.records.end(), records.begin(), records.end());
  }
  return stats;
}

/// Open loop: sends query i at start + offsets[i] regardless of replies,
/// round-robin over `connections` pipelined connections; one reader thread
/// per connection matches replies by id. `during` runs on its own thread
/// for the window (the ingest stream).
template <typename During>
WindowStats OpenLoop(const std::string& socket,
                     const std::vector<Request>& queries,
                     const std::vector<double>& offsets, int connections,
                     uint64_t id_base, During during) {
  WindowStats stats;
  const size_t n = offsets.size();
  stats.records.resize(n);
  stats.sender_late_s.reserve(n);
  std::vector<int> fds;
  for (int c = 0; c < connections; ++c) fds.push_back(ConnectAndPing(socket));
  std::atomic<bool> sender_done{false};
  std::vector<std::atomic<size_t>> sent_on(static_cast<size_t>(connections));
  std::vector<std::atomic<size_t>> read_on(static_cast<size_t>(connections));
  for (auto& a : sent_on) a = 0;
  for (auto& a : read_on) a = 0;
  std::atomic<double> sender_end{0.0};

  stats.start_s = NowSeconds() + 0.05;
  for (size_t i = 0; i < n; ++i) {
    stats.records[i].intended_s = stats.start_s + offsets[i];
    stats.records[i].query = static_cast<uint32_t>(i);
  }
  std::vector<std::thread> readers;
  for (int c = 0; c < connections; ++c) {
    readers.emplace_back([&, c] {
      const int fd = fds[static_cast<size_t>(c)];
      if (fd < 0) return;
      auto& read_count = read_on[static_cast<size_t>(c)];
      while (true) {
        if (sender_done.load() &&
            read_count.load() >= sent_on[static_cast<size_t>(c)].load()) {
          break;
        }
        if (sender_done.load() &&
            NowSeconds() > sender_end.load() + kReplyDrainS) {
          break;
        }
        struct pollfd pfd = {fd, POLLIN, 0};
        if (::poll(&pfd, 1, 50) <= 0) continue;
        auto payload = kgc::serve::ReadFrame(fd, 5000);
        const double now = NowSeconds();
        if (!payload.ok() || payload->size() < kgc::serve::kReplyHeaderBytes) {
          break;  // connection lost: the rest stay unanswered
        }
        uint64_t id = 0;
        std::memcpy(&id, payload->data() + 3, sizeof(id));  // LE hosts only
        if (id <= id_base || id > id_base + n) {
          continue;  // not ours (cannot happen on a healthy server)
        }
        const size_t i = static_cast<size_t>(id - id_base - 1);
        RequestRecord& record = stats.records[i];
        record.replied_s = now;
        ReadReply(*payload, queries[i].type, id, record);
        if (Tracer::Get().enabled()) {
          SpanRecord span;
          span.name = "client.request";
          span.trace = id;
          span.start_s = record.intended_s;
          span.end_s = now;
          Tracer::Get().Record(span);
        }
        read_count.fetch_add(1);
      }
    });
  }
  const double last_offset = n > 0 ? offsets.back() : 0.0;
  std::thread side([&] { during(stats.start_s, stats.start_s + last_offset); });

  for (size_t i = 0; i < n; ++i) {
    RequestRecord& record = stats.records[i];
    const double wait = record.intended_s - NowSeconds();
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    Request request = queries[i];
    request.id = id_base + i + 1;
    const size_t c = i % static_cast<size_t>(connections);
    const std::string frame = EncodeTraced(request);
    record.sent_s = NowSeconds();
    stats.sender_late_s.push_back(record.sent_s - record.intended_s);
    if (fds[c] < 0 || !kgc::serve::WriteFrame(fds[c], frame, 2000).ok()) {
      record.outcome = Outcome::kTransport;
      continue;
    }
    sent_on[c].fetch_add(1);
  }
  sender_end = NowSeconds();
  sender_done = true;
  side.join();
  for (std::thread& t : readers) t.join();
  for (int fd : fds) {
    if (fd >= 0) ::close(fd);
  }
  stats.end_s = stats.start_s;
  for (const RequestRecord& r : stats.records) {
    stats.end_s = std::max(stats.end_s, r.replied_s);
  }
  return stats;
}

// --- ingest stream ----------------------------------------------------------

struct IngestEvent {
  double start_s = 0.0;
  double end_s = 0.0;
  std::string outcome;
  int64_t generation = -1;
};

// --- result assembly --------------------------------------------------------

struct WindowSummary {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t ok_topk = 0;
  std::map<std::string, uint64_t> failures;
  std::vector<double> latency_s;  ///< OK replies
  uint64_t on_time = 0;
  double wall_s = 0.0;
};

WindowSummary Summarize(const WindowStats& window,
                        const std::vector<Request>& queries,
                        bool open_loop) {
  WindowSummary s;
  s.wall_s = window.end_s - window.start_s;
  for (const RequestRecord& r : window.records) {
    ++s.attempted;
    if (r.outcome != Outcome::kOk) {
      s.failures[OutcomeName(r.outcome)]++;
      continue;
    }
    ++s.ok;
    if (queries[r.query].type == RequestType::kTopK) ++s.ok_topk;
    const double latency =
        r.replied_s - (open_loop ? r.intended_s : r.sent_s);
    s.latency_s.push_back(latency);
    if (latency <= kLatencyLimitS) ++s.on_time;
  }
  return s;
}

std::string FailuresJson(const std::map<std::string, uint64_t>& failures) {
  std::string json = "{";
  for (const auto& [name, count] : failures) {
    json += (json.size() > 1 ? ", " : "") + JsonString(name) + ": " +
            std::to_string(count);
  }
  return json + "}";
}

/// Checks every OK reply against the generation it names. Marks mismatches
/// in place and returns how many there were.
uint64_t CheckReplies(WindowStats& window, const std::vector<Request>& queries,
                      SnapshotRegistry& registry,
                      std::map<int64_t, std::shared_ptr<LoadedGeneration>>&
                          generations) {
  std::map<int64_t, std::vector<size_t>> by_generation;
  for (size_t i = 0; i < window.records.size(); ++i) {
    if (window.records[i].outcome == Outcome::kOk) {
      by_generation[window.records[i].generation].push_back(i);
    }
  }
  uint64_t mismatches = 0;
  for (const auto& [generation, indexes] : by_generation) {
    auto& gen = generations[generation];
    if (gen == nullptr) {
      auto loaded = registry.LoadGeneration(generation);
      if (loaded.ok()) {
        gen = std::make_shared<LoadedGeneration>(std::move(*loaded));
      }
    }
    std::vector<Request> asked;
    for (size_t i : indexes) asked.push_back(queries[window.records[i].query]);
    const std::vector<uint32_t> expected =
        gen != nullptr ? ExpectedCrcs(*gen, asked)
                       : std::vector<uint32_t>(asked.size(), 0);
    for (size_t j = 0; j < indexes.size(); ++j) {
      RequestRecord& r = window.records[indexes[j]];
      if (gen == nullptr || r.crc != expected[j]) {
        r.outcome = Outcome::kMismatch;
        ++mismatches;
      }
    }
  }
  return mismatches;
}

/// Reads the last JSON document of a JSONL file.
bool LastJsonLine(const std::string& path, kgc::obs::JsonValue* out) {
  auto lines = kgc::ReadLines(path);
  if (!lines.ok()) return false;
  for (auto it = lines->rbegin(); it != lines->rend(); ++it) {
    if (!it->empty() && kgc::obs::JsonValue::Parse(*it, out)) return true;
  }
  return false;
}

double Path(const kgc::obs::JsonValue& root,
            std::initializer_list<const char*> keys) {
  const kgc::obs::JsonValue* v = &root;
  for (const char* key : keys) {
    v = v->Find(key);
    if (v == nullptr) return 0.0;
  }
  return v->AsNumber(0.0);
}

/// Mean of the server's queue-depth gauge over the exporter's ticks.
double MeanQueueDepth(const std::string& timeseries_path) {
  auto lines = kgc::ReadLines(timeseries_path);
  if (!lines.ok()) return 0.0;
  std::vector<double> depths;
  for (const std::string& line : *lines) {
    kgc::obs::JsonValue record;
    if (line.empty() || !kgc::obs::JsonValue::Parse(line, &record)) continue;
    depths.push_back(Path(record, {"gauges", "kgc.serve.queue_depth"}));
  }
  return Mean(depths);
}

}  // namespace

RunResult RunServe(const RunOptions& options, const InputSeeds& seeds) {
  RunResult result;
  Tracer& tracer = Tracer::Get();
  const bool traced = tracer.enabled();
  tracer.Enable(false);
  const bool rotate = options.workload == "serve_rotate";
  const kgc::GeneratorSpec spec =
      options.smoke ? kgc::TinySpec() : kgc::ScaleSpec(10000);
  const size_t batch_triples =
      options.smoke ? kSmokeIngestBatchTriples : kIngestBatchTriples;
  const std::string work = std::string(kWorkDir) + "/" + options.workload +
                           "-" + std::to_string(::getpid());
  RemoveTree(work);
  if (!MakeDirs(work)) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", work.c_str());
    return result;
  }
  struct Cleanup {
    std::string dir;
    ~Cleanup() { RemoveTree(dir); }
  } cleanup{work};
  result.Detail("scale_spec", "{\"name\": " + JsonString(spec.name) +
                                  ", \"entities\": " +
                                  std::to_string(spec.num_entities()) +
                                  ", \"bootstrap_epochs\": " +
                                  std::to_string(kBootstrapEpochs) + "}");

  // --- set-up: generate, publish generation 0, start the server --------
  auto& trainer_epochs = kgc::obs::Registry::Get().GetDurationHistogram(
      kgc::obs::kTrainerEpochSeconds);
  trainer_epochs.ResetForTest();
  const uint64_t examples0 =
      kgc::obs::Registry::Get().GetCounter(kgc::obs::kTrainerExamples).value();
  std::vector<double> setup_s, generate_s;
  std::unique_ptr<SnapshotRegistry> registry;
  Dataset base;
  std::vector<std::vector<std::string>> ingest_batches;
  auto server = std::make_unique<ServerProcess>();
  const std::string socket = work + "/s.sock";
  int reps = options.smoke ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    if (rep > 0) server->Stop();
    const double start = NowSeconds();
    Dataset full = kgc::GenerateKg(spec, seeds.data).dataset;
    generate_s.push_back(NowSeconds() - start);
    // Hold out the tail of the train split: it is the ingest stream.
    const size_t held = std::min(full.train().size() / 4,
                                 kIngestBatches * batch_triples);
    kgc::TripleList train(full.train().begin(),
                          full.train().end() - static_cast<long>(held));
    ingest_batches.assign(kIngestBatches, {});
    for (size_t i = 0; i < held; ++i) {
      const kgc::Triple& t = full.train()[train.size() + i];
      ingest_batches[i / batch_triples].push_back(
          full.vocab().EntityName(t.head) + "\t" +
          full.vocab().RelationName(t.relation) + "\t" +
          full.vocab().EntityName(t.tail));
    }
    base = Dataset(full.name(), full.vocab(), std::move(train), full.valid(),
                   full.test());
    const std::string registry_dir = work + "/reg" + std::to_string(rep);
    auto opened = SnapshotRegistry::Open(registry_dir);
    if (!opened.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   opened.status().ToString().c_str());
      return result;
    }
    registry = std::move(*opened);
    kgc::StreamIngestorOptions ingest_options;
    ingest_options.model_type = kgc::ModelType::kTransE;
    ingest_options.bootstrap_epochs = kBootstrapEpochs;
    ingest_options.train_seed = seeds.train;
    kgc::StreamIngestor bootstrapper(*registry, ingest_options);
    auto boot = bootstrapper.Bootstrap(base);
    if (!boot.ok() || !boot->published()) {
      std::fprintf(stderr, "perfbench: bootstrap failed: %s\n",
                   boot.ok() ? boot->detail.c_str()
                             : boot.status().ToString().c_str());
      return result;
    }
    if (!server->Start(options.serve_bin, registry_dir, socket,
                       work + "/serve" + std::to_string(rep), "")) {
      return result;
    }
    setup_s.push_back(NowSeconds() - start);
  }
  const double epoch_p50_s = trainer_epochs.Quantile(0.5);
  const double setup_train_s = trainer_epochs.sum();
  const uint64_t setup_examples =
      kgc::obs::Registry::Get().GetCounter(kgc::obs::kTrainerExamples).value() -
      examples0;
  const std::shared_ptr<const LoadedGeneration> gen0 = registry->current();
  std::map<int64_t, std::shared_ptr<LoadedGeneration>> generations;

  // --- queries ------------------------------------------------------------
  const std::vector<Request> pool = MakePool(gen0->dataset, seeds.queries);
  const std::vector<uint32_t> pool_crcs = ExpectedCrcs(*gen0, pool);
  const double rate = options.smoke ? kSmokeRotateRate : kRotateRate;

  // Untimed warm-up on the pool.
  ClosedLoop(socket, pool, rotate ? kRotateConnections : kClosedConnections,
             options.smoke ? 0.5 : kWarmupS, /*id_base=*/1ULL << 62);

  // The ingest stream, shared by both half windows of a traced run.
  kgc::StreamIngestorOptions ingest_options;
  ingest_options.model_type = kgc::ModelType::kTransE;
  ingest_options.epochs = kIngestEpochs;
  ingest_options.train_seed = seeds.ingest;
  ingest_options.threads = 1;
  kgc::StreamIngestor ingestor(*registry, ingest_options);
  size_t next_batch = 0;

  struct Measured {
    WindowStats window;
    std::vector<Request> queries;
    std::vector<IngestEvent> events;
    uint64_t mismatches = 0;
  };
  uint64_t window_index = 0;
  const auto measure = [&](double seconds) {
    Measured m;
    const uint64_t id_base = (++window_index) << 40;
    if (!rotate) {
      m.queries = pool;
      m.window = ClosedLoop(socket, pool, kClosedConnections, seconds,
                            id_base);
      for (RequestRecord& r : m.window.records) {
        if (r.outcome != Outcome::kOk) continue;
        if (r.generation != gen0->manifest.generation ||
            r.crc != pool_crcs[r.query]) {
          r.outcome = Outcome::kMismatch;
          ++m.mismatches;
        }
      }
      return m;
    }
    const std::vector<double> offsets =
        PoissonOffsets(rate, seconds, seeds.arrivals + window_index);
    m.queries = MakeFreshQueries(gen0->dataset, offsets.size(),
                                 seeds.queries + window_index);
    m.window = OpenLoop(
        socket, m.queries, offsets, kRotateConnections, id_base,
        [&](double start, double end) {
          // Smoke windows are short: ingest early and often.
          const double first = options.smoke ? 0.1 : kIngestFirstS;
          const double interval = options.smoke ? 0.4 : kIngestIntervalS;
          for (int k = 0;; ++k) {
            const double at = start + first + k * interval;
            if (at > end - first || next_batch >= ingest_batches.size()) {
              break;
            }
            std::this_thread::sleep_for(
                std::chrono::duration<double>(at - NowSeconds()));
            IngestEvent event;
            event.start_s = NowSeconds();
            Span span("snapshot.ingest");
            auto report = ingestor.IngestBatch(
                ingest_batches[next_batch],
                "bench-" + std::to_string(next_batch),
                static_cast<int64_t>(next_batch) + 1);
            ++next_batch;
            event.end_s = NowSeconds();
            event.outcome = report.ok() ? report->outcome : "error";
            event.generation = report.ok() ? report->generation : -1;
            m.events.push_back(event);
          }
        });
    m.mismatches = CheckReplies(m.window, m.queries, *registry, generations);
    return m;
  };

  const auto record_window = [&](const Measured& m, bool open_loop) {
    WindowSummary s = Summarize(m.window, m.queries, open_loop);
    result.attempted += s.attempted;
    result.failed += s.attempted - s.ok;
    return s;
  };

  // --- measured windows ----------------------------------------------------
  const double window_s = traced ? options.seconds / 2 : options.seconds;
  const CpuTicks ticks0 = ReadCpuTicks();
  Measured first = measure(window_s);
  // An open-loop window whose sender fell behind its schedule is invalid:
  // it is measured again, once, and its numbers are not counted (its
  // mismatches still are).
  int invalid_windows = 0;
  uint64_t mismatches = 0;
  if (rotate && Quantile(first.window.sender_late_s, 0.99) > kSenderLateLimitS) {
    ++invalid_windows;
    mismatches += first.mismatches;
    first = measure(window_s);
  }
  WindowSummary first_summary = record_window(first, rotate);
  Measured second;
  WindowSummary second_summary;
  double server_rss = server->PeakRss();
  const std::string telemetry = work + "/telemetry";
  if (traced) {
    // Restart with telemetry on, warm up, and measure the traced half.
    server->Stop();
    server = std::make_unique<ServerProcess>();
    if (!server->Start(options.serve_bin, registry->root(), socket,
                       work + "/serve-traced", telemetry)) {
      return result;
    }
    ClosedLoop(socket, pool, rotate ? kRotateConnections : kClosedConnections,
               options.smoke ? 0.5 : kWarmupS / 2, 1ULL << 61);
    tracer.Enable(true);
    second = measure(window_s);
    tracer.Enable(false);
    second_summary = record_window(second, rotate);
    server_rss = std::max(server_rss, server->PeakRss());
  }
  const bool clean_exit = server->Stop();
  result.Detail("host_steal_frac",
                JsonNumber(StealFraction(ticks0, ReadCpuTicks())));
  result.Detail("invalid_windows", std::to_string(invalid_windows));

  // --- checks --------------------------------------------------------------
  mismatches += first.mismatches + second.mismatches;
  result.Check(rotate ? "serve_rotate.replies_match_generation"
                      : "serve_closed.fingerprints_match",
               mismatches == 0);
  result.Check("serve.some_ok_replies",
               first_summary.ok > 0 && (!traced || second_summary.ok > 0));
  result.Check("serve.clean_drain", clean_exit);
  std::vector<double> late = first.window.sender_late_s;
  late.insert(late.end(), second.window.sender_late_s.begin(),
              second.window.sender_late_s.end());
  if (rotate) {
    const double late_p99 = Quantile(late, 0.99);
    result.Check("serve_rotate.sender_on_schedule",
                 late_p99 <= kSenderLateLimitS);
    result.Detail("sender_late_ms",
                  "{\"p50\": " + JsonNumber(Quantile(late, 0.5) * 1e3) +
                      ", \"p99\": " + JsonNumber(late_p99 * 1e3) +
                      ", \"max\": " + JsonNumber(Quantile(late, 1.0) * 1e3) +
                      "}");
    size_t published = 0;
    std::map<std::string, uint64_t> outcomes;
    for (const Measured* m : {&first, &second}) {
      for (const IngestEvent& e : m->events) {
        outcomes[e.outcome]++;
        published += e.outcome == "published" ? 1 : 0;
      }
    }
    result.Check("serve_rotate.rotated", published > 0);
    result.Detail("ingest_outcomes", FailuresJson(outcomes));
    result.Detail("offered_rate", JsonNumber(rate));
  }
  result.Detail("mismatches", std::to_string(mismatches));
  result.Detail("failures", FailuresJson(first_summary.failures));
  result.Detail("latency_limit_ms", JsonNumber(kLatencyLimitS * 1e3));

  if (!traced) {
    const WindowSummary& s = first_summary;
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("wall_s", s.wall_s, "s");
    result.Add("rank_triples_per_s",
               static_cast<double>(s.ok_topk) / s.wall_s, "1/s");
    result.Add("qps", static_cast<double>(s.ok) / s.wall_s, "1/s");
    result.Add("on_time_frac",
               static_cast<double>(s.on_time) /
                   static_cast<double>(std::max<uint64_t>(s.attempted, 1)),
               "ratio");
    result.Add("peak_rss_mb", server_rss, "MiB");
    // On a shared VM the latency quantiles follow the hypervisor's steal
    // time (host_steal_frac) by more than the largest allowed bound, so they
    // are recorded with the run, not reported as gated metrics.
    result.Detail("latency_ms",
                  "{\"p50\": " + JsonNumber(Quantile(s.latency_s, 0.5) * 1e3) +
                      ", \"p99\": " +
                      JsonNumber(Quantile(s.latency_s, 0.99) * 1e3) +
                      ", \"samples\": " +
                      std::to_string(s.latency_s.size()) + "}");
    return result;
  }

  // --- per-layer metrics (traced half window) -----------------------------
  const WindowSummary& s = second_summary;
  result.Add("datagen.generate_s", Median(generate_s), "s");
  result.Add("models.train_epoch_s.TransE", epoch_p50_s, "s");
  result.Add("models.examples_per_s",
             static_cast<double>(setup_examples) / setup_train_s, "1/s");

  kgc::obs::JsonValue report;
  const bool have_report = LastJsonLine(telemetry + ".report.jsonl", &report);
  result.Check("serve.telemetry_report", have_report);
  const double batch_count =
      Path(report, {"histograms", "kgc.serve.batch_size", "count"});
  const double batch_mean =
      batch_count > 0
          ? Path(report, {"histograms", "kgc.serve.batch_size", "sum"}) /
                batch_count
          : 0.0;
  result.Add("serve.batch_size_mean", batch_mean, "count");
  result.Add("serve.queue_depth_mean",
             MeanQueueDepth(telemetry + ".timeseries.jsonl"), "count");
  result.Add("serve.batch_ms_p50",
             Path(report, {"durations", "kgc.serve.batch_seconds", "p50"}) * 1e3,
             "ms");
  const double server_request_p50_ms =
      Path(report, {"durations", "kgc.serve.request_seconds", "p50"}) * 1e3;
  result.Add("serve.request_ms_p50", server_request_p50_ms, "ms");
  result.Add("serve.client_overhead_ms_p50",
             Quantile(s.latency_s, 0.5) * 1e3 - server_request_p50_ms, "ms");
  std::vector<double> codec;
  for (const char* name : {"client.encode", "client.decode"}) {
    for (double d : tracer.Durations(name)) codec.push_back(d * 1e6);
  }
  result.Add("serve.client_codec_us_p50", Median(codec), "us");
  result.Add("serve.shed", Path(report, {"counters", "kgc.serve.shed"}),
             "count");
  result.Add("serve.deadline_exceeded",
             Path(report, {"counters", "kgc.serve.deadline_exceeded"}),
             "count");
  result.Add("snapshot.reader_swap_ms",
             Path(report, {"durations", "kgc.snapshot.reader_swap_seconds",
                           "p50"}) *
                 1e3,
             "ms");
  if (rotate) {
    std::vector<double> ingest_s, publish_to_serve_ms;
    double rotations = 0;
    for (const IngestEvent& e : second.events) {
      ingest_s.push_back(e.end_s - e.start_s);
      if (e.outcome != "published") continue;
      rotations += 1;
      double first_reply = 0.0;
      for (const RequestRecord& r : second.window.records) {
        if (r.outcome == Outcome::kOk && r.generation == e.generation &&
            (first_reply == 0.0 || r.replied_s < first_reply)) {
          first_reply = r.replied_s;
        }
      }
      if (first_reply > 0.0) {
        publish_to_serve_ms.push_back((first_reply - e.end_s) * 1e3);
      }
    }
    result.Add("snapshot.ingest_s", Median(ingest_s), "s");
    result.Add("snapshot.publish_to_serve_ms", Median(publish_to_serve_ms),
               "ms");
    result.Add("snapshot.rotations", rotations, "count");
  }

  // Replay the served generation's top-K and classification work at the
  // batch sizes the server reported.
  const std::shared_ptr<const LoadedGeneration> served = registry->current();
  const size_t topk_batch = std::max<size_t>(
      1, static_cast<size_t>(std::lround(batch_mean * (1.0 - kClassifyFrac))));
  std::vector<kgc::TopKQuery> replay;
  for (const Request& r : pool) {
    if (r.type != RequestType::kTopK) continue;
    kgc::TopKQuery q;
    q.tails = r.tails;
    q.relation = r.relation;
    q.anchor = r.anchor;
    replay.push_back(q);
  }
  kgc::TopKOptions topt;
  topt.k = static_cast<int>(kK);
  topt.threads = 1;  // as the server runs it
  const kgc::TopKEngine engine(*served->model, topt);
  auto& registry_metrics = kgc::obs::Registry::Get();
  const uint64_t scored0 =
      registry_metrics.GetCounter(kgc::obs::kTopKEntitiesScored).value();
  const uint64_t queries0 =
      registry_metrics.GetCounter(kgc::obs::kTopKQueriesBatched).value();
  const uint64_t pruned0 =
      registry_metrics.GetCounter(kgc::obs::kTopKTilesPruned).value();
  std::vector<double> run_ms;
  for (size_t begin = 0; run_ms.size() < 64; begin += topk_batch) {
    std::vector<kgc::TopKQuery> batch;
    for (size_t j = 0; j < topk_batch; ++j) {
      batch.push_back(replay[(begin + j) % replay.size()]);
    }
    const double start = NowSeconds();
    engine.Run(batch, &served->dataset.all_store());
    run_ms.push_back((NowSeconds() - start) * 1e3);
  }
  const double scored = static_cast<double>(
      registry_metrics.GetCounter(kgc::obs::kTopKEntitiesScored).value() -
      scored0);
  const double batched = static_cast<double>(
      registry_metrics.GetCounter(kgc::obs::kTopKQueriesBatched).value() -
      queries0);
  const double pruned = static_cast<double>(
      registry_metrics.GetCounter(kgc::obs::kTopKTilesPruned).value() -
      pruned0);
  const double tiles_per_query = std::ceil(
      static_cast<double>(served->model->num_entities()) / topt.tile_rows);
  result.Add("eval.topk_run_ms", Median(run_ms), "ms");
  result.Add("eval.topk_scored_per_query", batched > 0 ? scored / batched : 0,
             "count");
  result.Add("eval.topk_pruned_frac",
             batched > 0 ? pruned / (batched * tiles_per_query) : 0, "ratio");
  std::vector<double> fit_ms;
  for (int i = 0; i < 3; ++i) {
    const double start = NowSeconds();
    kgc::TripleClassificationOptions copt;
    copt.seed = kgc::serve::ServeOptions{}.classify_seed;
    const auto thresholds = kgc::FitClassificationThresholds(
        *served->model, served->dataset, copt);
    fit_ms.push_back((NowSeconds() - start) * 1e3);
    std::vector<kgc::Triple> triples;
    for (const Request& r : pool) {
      if (r.type == RequestType::kClassify) triples.push_back(r.triple);
    }
    kgc::ClassifyTriples(*served->model, thresholds, triples);
  }
  result.Add("eval.classify_fit_ms", Median(fit_ms), "ms");
  TimeVecmathKernels(*served->model, *served->model, result);

  const double untraced_p50 = Quantile(first_summary.latency_s, 0.5);
  const double traced_p50 = Quantile(s.latency_s, 0.5);
  result.Add("obs.trace_overhead_frac",
             untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0,
             "ratio");
  FillUnreachedLayers(result);
  return result;
}

}  // namespace perfbench
