// The two workloads' load generators. A single process drives the real
// serving stack (spawned as its own process, see sut.cc) over loopback,
// checks every answer, and reports the end-to-end metrics (untraced run) or
// the per-layer metrics (traced run).
#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "common.h"
#include "net/client.h"
#include "net/coordinator.h"
#include "net/server.h"
#include "replay.h"
#include "report.h"

namespace vz::perfbench {
namespace {

// --- Fixed workload parameters (see NOTES.md for why each is what it is). ---

/// Closed-loop client connections of `direct`. A third client only adds
/// queueing on a 4-vCPU host.
constexpr size_t kDirectClients = 2;
/// Query features per paper class in `direct`'s seeded pool.
constexpr size_t kDirectPerClass = 96;
/// Full system set-ups per `direct` run; set-up time is their median.
constexpr size_t kDirectSetups = 3;
/// `direct` query latency tail: p90, the median over sub-windows of
/// thousands of replies. Loopback p99 moved by up to 2x and p95 by up to
/// 40% between runs on a shared 4-vCPU host.
constexpr double kDirectTailQ = 0.90;
/// Sub-windows of `direct`'s measurement; each has thousands of replies.
constexpr size_t kDirectWindows = 10;
/// Untimed warm-up before `direct`'s measurement.
constexpr double kDirectWarmupSeconds = 2.0;

/// Frames per IngestBatch call in `ingest`: the batch of the repository's
/// own batched-ingest measurement (bench_net_throughput, ingest_batch16).
constexpr size_t kBatchFrames = 16;
/// Probe period of `ingest`'s open-loop prober, its sender threads and the
/// multiplexed connections they share. 64 senders cover 1.28 s of probes in
/// flight, longer than the longest stall, so a probe is never held back by
/// the previous one; 4 connections keep the server from serializing them.
constexpr double kProbePeriodMs = 20.0;
constexpr size_t kProbeSenders = 64;
constexpr size_t kProbeConnections = 4;
/// Query features per paper class in `ingest`'s seeded pool (probes draw
/// from it; every pass ends by querying all of it).
constexpr size_t kProbePerClass = 96;
/// Ingest ack tail: acks have a ~2.7 ms group-commit mode and a stall mode
/// of the 3 batches per pass (1.7%) whose segment closes rebuild the
/// inter-camera index (~0.13, ~0.6 and ~0.8 s). p98 still reads the fast
/// mode; p99 sits inside the stall mode, with 10+ samples beyond it from 6
/// passes (1080 acks) on.
constexpr double kAckTailQ = 0.99;
/// Ack latency tail reported end to end, per pass: p90, the highest
/// percentile that stays inside the group-commit mode run to run. Over five
/// runs p90 read 3.03-3.15 ms, p95 3.4-3.9 ms (batches that close cheap
/// segments begin there) and p98 13-17 ms; 18 of a pass's 180 acks lie
/// beyond p90.
constexpr double kAckLatencyTailQ = 0.90;
/// Probe latency tail: p90, inside the mode of probes that waited out a
/// segment-closing batch (over half of them do).
constexpr double kProbeTailQ = 0.90;
/// Closed-loop read slice that ends each ingest pass, on the idle server
/// with the whole fleet ingested; thousands of replies a slice.
constexpr int64_t kReadSliceMs = 2000;
/// Post-ingest read latency tail, per slice: p90, as on `direct`.
constexpr double kReadTailQ = 0.90;
/// Closed-loop read connections of the slice, as many as `direct` has. On
/// five alternating seeds, two read the same p50 as one at twice the
/// replies and spread 0.10 run to run against one's 0.14.
constexpr size_t kReadConnections = kDirectClients;
static_assert(kReadConnections <= kProbeConnections,
              "the read slice reuses the prober's connections");
/// Minimum ingest passes per run, whatever `--seconds` says: enough acks
/// for the p99 ack tail.
constexpr size_t kMinPasses = 6;

/// Threshold of `ingest`'s match-all standing query.
constexpr double kMatchAll = 1e300;

std::string TailDetail(const Tail& tail) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer), "p%g of %zu samples, %zu beyond%s",
                tail.q * 100.0, tail.samples, tail.beyond,
                tail.valid ? "" : " (TOO FEW BEYOND)");
  return buffer;
}

/// Prints a distribution's shape, so each fixed tail percentile can be seen
/// to sit inside one mode.
void PrintQuantiles(const char* what, const std::vector<double>& ms) {
  std::printf("%s ms quantiles (%zu samples):", what, ms.size());
  for (double q : {0.5, 0.8, 0.9, 0.95, 0.97, 0.98, 0.99, 1.0}) {
    std::printf(" p%g=%.3f", q * 100.0, Percentile(ms, q));
  }
  std::printf("\n");
}

std::string MedianDetail(size_t samples) {
  return "p50 of " + std::to_string(samples) + " samples";
}

/// Numeric field `key` of a flat JSON object printed by the SUT; 0 if absent.
double JsonField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

/// The JSON object following `"key":` (one nesting level, no strings).
std::string JsonObject(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":{";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return "";
  const size_t end = json.find('}', pos);
  return json.substr(pos + needle.size() - 1, end - pos - needle.size() + 2);
}

std::vector<std::string> Split(const std::string& line) {
  std::istringstream in(line);
  std::vector<std::string> parts;
  for (std::string part; in >> part;) parts.push_back(part);
  return parts;
}

Answer ToAnswer(const core::DirectQueryResult& result) {
  Answer answer;
  answer.candidates = result.candidate_svss;
  answer.matched = result.matched_svss;
  answer.bottleneck_gpu_ms = result.bottleneck_camera_gpu_ms;
  answer.total_gpu_ms = result.total_gpu_ms;
  answer.degraded = result.degraded;
  answer.timed_out = result.timed_out;
  return answer;
}

/// Samples the serving process's thread count from /proc while alive.
class ThreadSampler {
 public:
  explicit ThreadSampler(pid_t pid) : pid_(pid), thread_([this] { Loop(); }) {}
  ~ThreadSampler() { Stop(); }
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  uint64_t peak() const { return peak_.load(); }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      const ProcSample sample = ReadProc(pid_);
      if (sample.ok && sample.threads > peak_.load()) peak_ = sample.threads;
      cv_.wait_for(lock, std::chrono::milliseconds(20), [this] { return stop_; });
    }
  }

  pid_t pid_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<uint64_t> peak_{0};
  std::thread thread_;
};

/// Serving-process accounting over a measurement window.
struct SutUsage {
  uint64_t threads_peak = 0;
  double cpu_ms = 0.0;
  double context_switches = 0.0;
  double peak_rss_mb = 0.0;
  double ops = 0.0;
};

/// CPU time (/proc) and context switches (the process's own getrusage) of
/// the serving process at one instant; a window is the difference of two,
/// each end read the same way.
struct UsageMark {
  uint64_t cpu_ticks = 0;
  uint64_t context_switches = 0;
};
UsageMark MarkUsage(SutProcess* sut) {
  return {ReadProc(sut->pid()).cpu_ticks, sut->ContextSwitches()};
}

/// Adds the window from `start` to `end`, which served `ops` operations.
void AddWindow(const UsageMark& start, const UsageMark& end, double ops,
               SutUsage* usage) {
  usage->cpu_ms += static_cast<double>(end.cpu_ticks - start.cpu_ticks) * 1e3 /
                   static_cast<double>(::sysconf(_SC_CLK_TCK));
  usage->context_switches +=
      static_cast<double>(end.context_switches - start.context_switches);
  usage->ops += ops;
}

std::string TracePath(const RunArgs& args, const std::string& who) {
  return args.out_dir + "/trace-" + args.workload + "-seed" +
         std::to_string(args.seed) + "-" + who + ".jsonl";
}

void AddUsage(const SutUsage& usage, Report* report) {
  report->Add("sut.threads_peak", "count",
              static_cast<double>(usage.threads_peak), "/proc Threads, max");
  report->Add("sut.cpu_us_per_op", "us",
              usage.ops > 0 ? usage.cpu_ms * 1e3 / usage.ops : 0.0,
              "/proc/<pid>/stat utime+stime over the window");
  report->Add("sut.ctx_switches_per_op", "count",
              usage.ops > 0 ? usage.context_switches / usage.ops : 0.0,
              "getrusage of the serving process at both ends of the window");
}

void AddClientStats(const std::vector<net::ClientCallStats>& stats,
                    Report* report) {
  uint64_t retries = 0;
  uint64_t transport = 0;
  for (const net::ClientCallStats& s : stats) {
    retries += s.shed_retries + s.reconnects;
    transport += s.transport_failures;
  }
  report->Add("client.retries", "count", static_cast<double>(retries),
              "shed retries + reconnects, all load-generator clients");
  report->Add("client.transport_failures", "count",
              static_cast<double>(transport));
}

/// Per-layer metrics of the edge query path and the verifier, from the
/// in-process reference answers (replies are checked identical to them, so
/// the served queries did the same work).
void AddQueryLayers(const DirectReference& ref, const std::string& detail,
                    Report* report) {
  std::vector<double> edge_us;
  double candidates = 0.0;
  double matched = 0.0;
  double bottleneck = 0.0;
  for (size_t q = 0; q < ref.answers.size(); ++q) {
    edge_us.insert(edge_us.end(), ref.edge_us[q].begin(), ref.edge_us[q].end());
    candidates += static_cast<double>(ref.answers[q].candidates.size());
    matched += static_cast<double>(ref.answers[q].matched.size());
    bottleneck += ref.answers[q].bottleneck_gpu_ms;
  }
  const double n = static_cast<double>(std::max<size_t>(1, ref.answers.size()));
  report->Add("query.direct_us_p50", "us", Percentile(edge_us, 0.5),
              detail + ", " + MedianDetail(edge_us.size()));
  report->Add("query.candidates", "count", candidates / n, "mean per query");
  report->Add("query.match_share", "ratio",
              candidates > 0 ? matched / candidates : 0.0,
              "verified matches / candidates");
  report->Add("query.cameras_searched", "count",
              Sum(ref.cameras_searched) / n, "mean per query");
  report->Add("verify.calls_per_query", "count", Sum(ref.verify_calls) / n,
              "timing verifier decorator");
  report->Add("verify.frames_per_query", "count", Sum(ref.verify_frames) / n);
  report->Add("query.bottleneck_gpu_ms", "sim-ms", bottleneck / n,
              "mean bottleneck_camera_gpu_ms (Fig. 16), pool answers");
}

/// Unit of the WAL and subscription metrics (reported as 0 on `direct`).
const char* WalOrSubUnit(const std::string& name) {
  if (name == "wal.bytes_per_frame") return "B";
  if (name == "wal.append_us_p50") return "us";
  if (name == "wal.ack_p50_ms" || name == "wal.ack_tail_ms" ||
      name == "sub.push_p50_ms") {
    return "ms";
  }
  if (name == "sub.delivery_share") return "ratio";
  return "count";
}

/// Per-layer metrics of the index-building path, from in-process replays of
/// the workload's own fleet: ingest, the inter-camera rebuild, PERCH, OMD
/// and its cache, the solver and lower bounds on sampled SVS pairs, and the
/// clustering query (timed in process only; see NOTES.md for why it is not
/// driven concurrently over the wire).
void AddIngestLayers(const std::vector<IngestTrace>& traces,
                     const std::vector<core::VideoZilla*>& systems,
                     Report* report) {
  std::vector<double> frame_us, close_ms, rebuild_ms, nn_us;
  double ingest_ms = 0.0;
  double rebuild_total = 0.0;
  for (const IngestTrace& t : traces) {
    frame_us.insert(frame_us.end(), t.frame_us.begin(), t.frame_us.end());
    close_ms.insert(close_ms.end(), t.close_ms.begin(), t.close_ms.end());
    rebuild_ms.insert(rebuild_ms.end(), t.rebuild_ms.begin(),
                      t.rebuild_ms.end());
    nn_us.insert(nn_us.end(), t.nn_us.begin(), t.nn_us.end());
    ingest_ms += t.ingest_ms_total;
    rebuild_total += t.rebuild_ms_total;
  }
  double svs = 0, entries = 0, insertions = 0, searches = 0, rotations = 0;
  double solves = 0, hits = 0, lookups = 0, failures = 0;
  for (core::VideoZilla* system : systems) {
    svs += static_cast<double>(system->ingest_stats().svs_created);
    entries += static_cast<double>(system->inter_index().size());
    const index::PerchStats perch = system->inter_index().tree().stats();
    insertions += static_cast<double>(perch.insertions);
    searches += static_cast<double>(perch.nn_searches);
    rotations += static_cast<double>(perch.masking_rotations +
                                     perch.balance_rotations);
    solves += static_cast<double>(system->omd().num_computations());
    const core::OmdCacheStats cache = system->omd_cache().stats();
    hits += static_cast<double>(cache.hits);
    lookups += static_cast<double>(cache.hits + cache.misses);
    failures += static_cast<double>(system->query_load_stats().omd_failures);
  }
  report->Add("ingest.frame_us_p50", "us", Percentile(frame_us, 0.5),
              "in-process IngestFrame, frames closing no segment, " +
                  MedianDetail(frame_us.size()));
  report->Add("ingest.close_ms_p50", "ms", Percentile(close_ms, 0.5),
              "frames closing a segment, " + MedianDetail(close_ms.size()));
  // A fleet closes only a few dozen segments, too few for a high
  // percentile with 10 samples beyond it; the total is reported instead.
  report->Add("ingest.close_ms_total", "ms", Sum(close_ms),
              "all frames closing a segment, in-process replay");
  report->Add("ingest.svs_created", "count", svs);
  report->Add("inter.rebuild_ms_p50", "ms", Percentile(rebuild_ms, 0.5),
              "shadow UpdateCamera replay, " + MedianDetail(rebuild_ms.size()));
  report->Add("inter.rebuild_share", "ratio",
              ingest_ms > 0 ? rebuild_total / ingest_ms : 0.0,
              "UpdateCamera replay / ingest replay");
  report->Add("inter.entries", "count", entries);
  report->Add("inter.nn_us_p50", "us", Percentile(nn_us, 0.5),
              "GroupOfNearest, " + MedianDetail(nn_us.size()));
  report->Add("perch.insertions", "count", insertions);
  report->Add("perch.nn_searches", "count", searches);
  report->Add("perch.rotations", "count", rotations);
  report->Add("omd.solves_per_svs", "count", svs > 0 ? solves / svs : 0.0);
  report->Add("omd.cache_hit_rate", "ratio", lookups > 0 ? hits / lookups : 0.0);
  report->Add("omd.failures", "count", failures);
  const SolverProbe solver = ProbeSolver(systems[0]->svs_store(), 48);
  const double exact = Percentile(solver.exact_us, 0.5);
  const double ground = Percentile(solver.ground_us, 0.5);
  report->Add("omd.exact_us_p50", "us", exact,
              MedianDetail(solver.exact_us.size()) + " sampled SVS pairs");
  report->Add("omd.thresholded_us_p50", "us",
              Percentile(solver.thresholded_us, 0.5));
  report->Add("omd.ground_us_p50", "us", ground);
  report->Add("omd.solver_share", "ratio",
              exact > 0 ? 1.0 - ground / exact : 0.0, "1 - ground / exact");
  report->Add("lb.ocd_us", "us", Percentile(solver.ocd_us, 0.5), "p50");
  report->Add("lb.quantized_us", "us", Percentile(solver.quantized_us, 0.5),
              "p50");
  report->Add("lb.tightness", "ratio", Mean(solver.tightness),
              "mean max(OCD, quantized) / exact OMD");
  const std::vector<double> clustering = ProbeClustering(systems[0], 16);
  report->Add("clustering.query_ms_p50", "ms", Percentile(clustering, 0.5),
              "in-process ClusteringQuery, " + MedianDetail(clustering.size()));
}

// ============================== direct ==============================

struct DirectLane {
  std::vector<double> latency_ms;
  /// Completion time of each correct reply, in seconds since the phase began.
  std::vector<double> done_s;
  std::vector<uint64_t> feature_replies;
  double gpu_ms_sum = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
  // Traced phase only.
  std::vector<double> coord_self_us;
  std::vector<double> rpc_overhead_us;
  Answer last_answer;
};

/// The running `direct` system: one SUT process and its ports.
struct DirectSut {
  std::unique_ptr<SutProcess> process;
  uint16_t coordinator = 0;
  std::array<uint16_t, kShards> edges{};
};

/// One full set-up of the system under test; returns its duration in
/// seconds (input generation excluded), or a negative value on failure.
double SetUpDirect(const RunArgs& args, DirectSut* sut,
                   std::vector<net::Client>* clients) {
  sut->process = std::make_unique<SutProcess>();
  std::vector<std::string> sut_args = {"sut", "direct"};
  if (args.trace) {
    sut_args.push_back("--trace-out");
    sut_args.push_back(TracePath(args, "sut"));
  }
  const Clock::time_point start = Clock::now();
  if (!sut->process->Start(sut_args)) return -1.0;
  const std::vector<std::string> ready = Split(sut->process->ReadLine());
  if (ready.size() != 5 || ready[0] != "READY") return -1.0;
  sut->coordinator = static_cast<uint16_t>(std::stoi(ready[1]));
  sut->edges[0] = static_cast<uint16_t>(std::stoi(ready[2]));
  sut->edges[1] = static_cast<uint16_t>(std::stoi(ready[3]));
  const double gen_ms = std::stod(ready[4]);
  clients->clear();
  for (size_t c = 0; c < kDirectClients; ++c) {
    auto client = net::Client::Connect("127.0.0.1", sut->coordinator);
    if (!client.ok()) return -1.0;
    clients->push_back(std::move(*client));
  }
  return (MsSince(start, Clock::now()) - gen_ms) / 1e3;
}

int RunDirect(const RunArgs& args) {
  Report report;
  SpanLog spans;

  // Reference: the same fleet built in process (not part of set-up).
  Fleet fleet(DirectFleetOptions(), &spans);
  const auto shards = fleet.deployment.PartitionCameras(kShards);
  std::vector<std::unique_ptr<core::VideoZilla>> edges;
  std::vector<IngestTrace> ingest(kShards);
  for (size_t s = 0; s < kShards; ++s) {
    edges.push_back(std::make_unique<core::VideoZilla>(IndexOptions()));
    Status status = ReplayIngest(edges[s].get(), shards[s],
                                 ShardFrames(&fleet.deployment, shards[s]),
                                 /*flush=*/true, /*shadow=*/args.trace,
                                 &ingest[s]);
    if (!status.ok()) {
      report.Invalidate("reference ingest failed: " + status.ToString());
      report.Print();
      return 1;
    }
    edges[s]->SetVerifier(&fleet.verifier);
  }
  const QueryPool pool =
      MakeQueryPool(fleet.deployment, args.seed, kDirectPerClass);
  const DirectReference ref =
      BuildDirectReference(&fleet, {edges[0].get(), edges[1].get()}, pool);

  // Set-up, several times; the last system serves the measurement.
  std::vector<double> setup_s;
  DirectSut sut;
  std::vector<net::Client> clients;
  for (size_t k = 0; k < kDirectSetups; ++k) {
    if (k > 0) {
      clients.clear();
      sut.process->Stop();
    }
    const double seconds = SetUpDirect(args, &sut, &clients);
    if (seconds < 0) {
      report.Invalidate("system set-up failed");
      report.Print();
      return 1;
    }
    setup_s.push_back(seconds);
  }
  const pid_t pid = sut.process->pid();

  std::vector<std::array<net::Client, kShards>> edge_clients;
  if (args.trace) {
    for (size_t c = 0; c < kDirectClients; ++c) {
      auto e0 = net::Client::Connect("127.0.0.1", sut.edges[0]);
      auto e1 = net::Client::Connect("127.0.0.1", sut.edges[1]);
      if (!e0.ok() || !e1.ok()) {
        report.Invalidate("edge connect failed");
        report.Print();
        return 1;
      }
      edge_clients.push_back({std::move(*e0), std::move(*e1)});
    }
  }

  // Measurement: closed-loop lanes. A traced run spends the first half
  // untraced (the tracing-overhead baseline) and the second half traced,
  // replaying every query's legs against the edges directly.
  const double phase_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<DirectLane> untraced(kDirectClients);
  std::vector<DirectLane> traced(kDirectClients);
  std::atomic<uint64_t> next_request{1};
  auto run_phase = [&](std::vector<DirectLane>* lanes, bool tracing,
                       double seconds) {
    if (tracing) spans.Enable();
    const Clock::time_point begin = Clock::now();
    const Clock::time_point end =
        begin + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kDirectClients; ++c) {
      threads.emplace_back([&, c] {
        DirectLane& lane = (*lanes)[c];
        lane.feature_replies.assign(pool.features.size(), 0);
        size_t q = c * pool.features.size() / kDirectClients;
        while (Clock::now() < end) {
          q = (q + 1) % pool.features.size();
          const uint64_t request = next_request.fetch_add(1);
          const Clock::time_point t0 = Clock::now();
          auto result = clients[c].DirectQuery(pool.features[q]);
          const Clock::time_point t1 = Clock::now();
          ++lane.attempted;
          std::string why;
          if (!result.ok()) {
            why = result.status().ToString();
          } else {
            lane.last_answer = ToAnswer(*result);
            why = CompareAnswers(ref.answers[q], lane.last_answer);
          }
          if (!why.empty()) {
            ++lane.failed;
            if (lane.failures.size() < 3) {
              lane.failures.push_back("direct query " + std::to_string(q) +
                                      ": " + why);
            }
            continue;
          }
          lane.latency_ms.push_back(MsSince(t0, t1));
          lane.done_s.push_back(MsSince(begin, t1) / 1e3);
          ++lane.feature_replies[q];
          lane.gpu_ms_sum += result->total_gpu_ms;
          if (!tracing) continue;
          const uint64_t root =
              spans.Record("client.coordinator.direct_query", t0, t1, 0,
                           request);
          double slowest_leg_us = 0.0;
          for (size_t s = 0; s < kShards; ++s) {
            const Clock::time_point l0 = Clock::now();
            auto leg = edge_clients[c][s].DirectQuery(pool.features[q]);
            const Clock::time_point l1 = Clock::now();
            spans.Record("client.edge.direct_query.replay", l0, l1, root,
                         request);
            if (!leg.ok()) continue;
            const double leg_us = UsSince(l0, l1);
            slowest_leg_us = std::max(slowest_leg_us, leg_us);
            lane.rpc_overhead_us.push_back(leg_us - ref.edge_us[q][s]);
          }
          lane.coord_self_us.push_back(UsSince(t0, t1) - slowest_leg_us);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  };
  // Warm-up: connections, thread pools and caches settle; its replies are
  // checked and counted but not timed.
  std::vector<DirectLane> warmup(kDirectClients);
  run_phase(&warmup, false, kDirectWarmupSeconds);
  // The serving process is accounted over the untraced phase only: the
  // traced phase also serves each query's replayed edge legs.
  ThreadSampler sampler(pid);
  const UsageMark window_start = MarkUsage(sut.process.get());
  const Clock::time_point measure_start = Clock::now();
  run_phase(&untraced, false, phase_seconds);
  const UsageMark window_end = MarkUsage(sut.process.get());
  sampler.Stop();
  if (args.trace) run_phase(&traced, true, phase_seconds);
  const double measured_s = MsSince(measure_start, Clock::now()) / 1e3;
  const ProcSample end_sample = ReadProc(pid);

  std::vector<net::ClientCallStats> client_stats;
  for (net::Client& client : clients) client_stats.push_back(client.call_stats());
  for (auto& pair : edge_clients) {
    for (net::Client& client : pair) client_stats.push_back(client.call_stats());
  }
  clients.clear();
  edge_clients.clear();
  const SutProcess::Exit exit = sut.process->Stop();
  if (!exit.clean) report.Invalidate("serving process did not exit cleanly");

  // Aggregate.
  std::vector<double> untraced_latency;
  std::vector<double> traced_latency;
  std::vector<double> coord_self;
  std::vector<double> rpc_overhead;
  std::vector<uint64_t> replies(pool.features.size(), 0);
  double gpu_sum = 0.0;
  uint64_t ok = 0;
  for (const DirectLane& lane : warmup) {
    report.Attempt(lane.attempted, lane.failed);
    for (const std::string& f : lane.failures) report.Note(f);
  }
  for (std::vector<DirectLane>* lanes : {&untraced, &traced}) {
    for (DirectLane& lane : *lanes) {
      report.Attempt(lane.attempted, lane.failed);
      for (const std::string& f : lane.failures) report.Note(f);
      std::vector<double>& latency =
          lanes == &untraced ? untraced_latency : traced_latency;
      latency.insert(latency.end(), lane.latency_ms.begin(),
                     lane.latency_ms.end());
      coord_self.insert(coord_self.end(), lane.coord_self_us.begin(),
                        lane.coord_self_us.end());
      rpc_overhead.insert(rpc_overhead.end(), lane.rpc_overhead_us.begin(),
                          lane.rpc_overhead_us.end());
      for (size_t q = 0; q < lane.feature_replies.size(); ++q) {
        replies[q] += lane.feature_replies[q];
      }
      gpu_sum += lane.gpu_ms_sum;
      ok += lane.latency_ms.size();
    }
  }
  // The checker must reject a perturbed copy of a real reply.
  {
    Answer perturbed = untraced[0].last_answer;
    perturbed.candidates.push_back(-1);
    if (CompareAnswers(untraced[0].last_answer, perturbed).empty()) {
      report.Invalidate("answer checker accepted a perturbed reply");
    }
  }

  sim::QueryEvaluation eval;
  for (size_t q = 0; q < pool.features.size(); ++q) {
    for (uint64_t r = 0; r < replies[q]; ++r) eval += ref.evals[q];
  }

  // Throughput and latency per sub-window of the untraced phase; the
  // reported figure is the median over sub-windows, so a transient host
  // disturbance in a few of them does not move it.
  std::vector<std::vector<double>> windows(kDirectWindows);
  for (const DirectLane& lane : untraced) {
    for (size_t i = 0; i < lane.latency_ms.size(); ++i) {
      const size_t w = std::min(
          kDirectWindows - 1,
          static_cast<size_t>(lane.done_s[i] / phase_seconds *
                              static_cast<double>(kDirectWindows)));
      windows[w].push_back(lane.latency_ms[i]);
    }
  }
  std::vector<double> window_qps, window_p50, window_tail;
  size_t min_beyond = SIZE_MAX;
  for (const std::vector<double>& w : windows) {
    window_qps.push_back(static_cast<double>(w.size()) /
                         (phase_seconds / static_cast<double>(kDirectWindows)));
    window_p50.push_back(Percentile(w, 0.5));
    window_tail.push_back(Percentile(w, kDirectTailQ));
    min_beyond = std::min(min_beyond, SamplesBeyond(w.size(), kDirectTailQ));
  }

  SutUsage usage;
  usage.threads_peak = sampler.peak();
  uint64_t untraced_attempted = 0;
  for (const DirectLane& lane : untraced) untraced_attempted += lane.attempted;
  AddWindow(window_start, window_end, static_cast<double>(untraced_attempted),
            &usage);
  usage.peak_rss_mb = static_cast<double>(end_sample.vm_hwm_kb) / 1024.0;

  std::printf("workload direct: %zu closed-loop clients through the "
              "coordinator over 2 edges, pool %zu features, %.3f s measured\n",
              kDirectClients, pool.features.size(), measured_s);
  if (!args.trace) {
    if (min_beyond < kMinBeyond) {
      report.Invalidate("a direct sub-window has too few samples beyond p90");
    }
    PrintQuantiles("direct query latency", untraced_latency);
    std::printf("replies/s per sub-window:");
    for (double qps : window_qps) std::printf(" %.0f", qps);
    std::printf("\np90 ms per sub-window:");
    for (double p90 : window_tail) std::printf(" %.3f", p90);
    std::printf("\n");
    const std::string per_window =
        "median over " + std::to_string(kDirectWindows) + " sub-windows of " +
        std::to_string(ok / kDirectWindows) + " replies on average, min " +
        std::to_string(min_beyond) + " beyond p90";
    report.Add("setup_s", "s", Percentile(setup_s, 0.5),
               "p50 of " + std::to_string(setup_s.size()) +
                   " full set-ups (both shards ingested, coordinator synced)");
    report.Add("peak_rss_mb", "MiB", usage.peak_rss_mb, "VmHWM of the SUT");
    report.Add("throughput", "1/s", Percentile(window_qps, 0.5),
               "direct_qps: correct replies/s, " + per_window);
    report.Add("latency_p50_ms", "ms", Percentile(window_p50, 0.5),
               "direct_p50_ms: query p50, " + per_window);
    report.Add("latency_tail_ms", "ms", Percentile(window_tail, 0.5),
               "direct_tail_ms: query p90, " + per_window);
    report.Add("answer_f1", "ratio", eval.F1(),
               "direct_f1: frame-level, over " + std::to_string(ok) +
                   " replies");
    report.Add("answer_gpu_ms", "sim-ms",
               ok > 0 ? gpu_sum / static_cast<double>(ok) : 0.0,
               "mean total_gpu_ms per reply (see query.bottleneck_gpu_ms)");
    report.Print();
    return 0;
  }

  // Per-layer metrics (traced run).
  const double coord_requests = JsonField(exit.stats, "coord_requests");
  const double legs = JsonField(exit.stats, "fanout_legs");
  const double pruned = JsonField(exit.stats, "pruned_legs");
  report.Add("trace.overhead_us_p50", "us",
             (Percentile(traced_latency, 0.5) -
              Percentile(untraced_latency, 0.5)) *
                 1e3,
             "coordinator query p50, traced half minus untraced half");
  report.Add("coord.self_us_p50", "us", Percentile(coord_self, 0.5),
             "coordinator reply minus slowest directly replayed leg, " +
                 MedianDetail(coord_self.size()));
  report.Add("coord.legs_per_query", "count",
             coord_requests > 0 ? legs / coord_requests : 0.0);
  report.Add("coord.pruned_share", "ratio",
             legs + pruned > 0 ? pruned / (legs + pruned) : 0.0);
  report.Add("edge.rpc_overhead_us_p50", "us", Percentile(rpc_overhead, 0.5),
             "edge loopback minus in-process, " +
                 MedianDetail(rpc_overhead.size()));
  report.Add("edge.batch_overhead_us_p50", "us", 0.0, "no ingest here");
  AddUsage(usage, &report);
  AddClientStats(client_stats, &report);
  AddQueryLayers(ref, "in-process replay per edge", &report);
  AddIngestLayers(ingest, {edges[0].get(), edges[1].get()}, &report);
  for (const char* name :
       {"wal.fsyncs", "wal.frames_per_fsync", "wal.bytes_per_frame",
        "wal.append_us_p50", "wal.ack_p50_ms", "wal.ack_tail_ms",
        "sub.evaluated",
        "sub.push_p50_ms", "sub.delivery_share", "sub.dropped", "sub.gaps"}) {
    report.Add(name, WalOrSubUnit(name), 0.0, "no WAL or subscription here");
  }
  const std::string load0 = JsonObject(exit.stats, "load0");
  const std::string load1 = JsonObject(exit.stats, "load1");
  report.Add("admission.shed", "count",
             JsonField(load0, "shed") + JsonField(load1, "shed"));
  report.Add("admission.max_in_flight", "count",
             std::max(JsonField(load0, "max_in_flight"),
                      JsonField(load1, "max_in_flight")));
  report.Add("probe.late_ms_max", "ms", 0.0, "no prober here");
  report.Add("probe.p50_ms", "ms", 0.0);
  report.Add("probe.tail_ms", "ms", 0.0);
  report.Add("post_ingest.read_p50_ms", "ms", 0.0,
             "no ingest here (latency_p50_ms is this workload's reads)");
  report.Add("post_ingest.read_tail_ms", "ms", 0.0);
  if (!spans.WriteJsonLines(TracePath(args, "loadgen"))) {
    report.Invalidate("cannot write the span log");
  }
  std::printf("spans recorded: %zu (written to %s)\n", spans.size(),
              TracePath(args, "loadgen").c_str());
  report.Print();
  return 0;
}

// ============================== ingest ==============================

/// Open-loop prober: probe k is due at start + phase + k * period and is
/// timed from its due time. Sender threads spread over a few multiplexed
/// (v5) connections, so no probe waits for the previous one's reply; a probe
/// only starts late when every sender is busy, and how late is reported.
class Prober {
 public:
  Prober(std::vector<net::Client*> clients, const QueryPool* pool,
         uint64_t seed, SpanLog* spans)
      : clients_(std::move(clients)), pool_(pool), rng_(seed), spans_(spans) {}
  ~Prober() { Stop(); }
  Prober(const Prober&) = delete;
  Prober& operator=(const Prober&) = delete;

  void Start() {
    const Clock::time_point start = Clock::now();
    const double phase_ms = rng_.UniformDouble() * kProbePeriodMs;
    for (size_t i = 0; i < kProbeSenders; ++i) {
      senders_.emplace_back(
          [this, i] { Send(clients_[i % clients_.size()]); });
    }
    dispatcher_ = std::thread([this, start, phase_ms] {
      for (uint64_t k = 0;; ++k) {
        const Clock::time_point due =
            start + std::chrono::microseconds(static_cast<int64_t>(
                        (phase_ms + static_cast<double>(k) * kProbePeriodMs) *
                        1e3));
        std::unique_lock<std::mutex> lock(mu_);
        if (cv_.wait_until(lock, due, [this] { return stopping_; })) return;
        queue_.push_back(
            {due, static_cast<size_t>(rng_.UniformUint64(pool_->features.size()))});
        cv_.notify_all();
      }
    });
  }

  /// Stops scheduling, lets every due probe finish, joins.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (dispatcher_.joinable()) dispatcher_.join();
    for (std::thread& t : senders_) t.join();
    senders_.clear();
  }

  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

 private:
  struct Due {
    Clock::time_point due;
    size_t feature = 0;
  };

  void Send(net::Client* client) {
    for (;;) {
      Due probe;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;
        probe = queue_.front();
        queue_.pop_front();
      }
      const Clock::time_point sent = Clock::now();
      auto result = client->DirectQuery(pool_->features[probe.feature]);
      const Clock::time_point done = Clock::now();
      spans_->Record("client.edge.probe", probe.due, done, 0, 0);
      std::string why;
      if (!result.ok()) {
        why = result.status().ToString();
      } else if (result->degraded) {
        why = "degraded reply";
      } else if (result->timed_out) {
        why = "timed-out reply";
      }
      std::lock_guard<std::mutex> lock(mu_);
      ++attempted;
      late_ms.push_back(MsSince(probe.due, sent));
      if (!why.empty()) {
        ++failed;
        if (failures.size() < 3) failures.push_back("probe: " + why);
        continue;
      }
      latency_ms.push_back(MsSince(probe.due, done));
    }
  }

  std::vector<net::Client*> clients_;
  const QueryPool* pool_;
  Rng rng_;
  SpanLog* spans_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Due> queue_;
  bool stopping_ = false;
  std::thread dispatcher_;
  std::vector<std::thread> senders_;
};

/// Everything one ingest pass needs, fixed for the run.
struct IngestPlan {
  std::vector<core::CameraId> cameras;
  std::vector<std::vector<core::FrameObservation>> batches;
  size_t frames = 0;
  uint64_t expected_svs = 0;
  /// SVS ids the match-all standing query must push (non-empty maps).
  std::set<core::SvsId> expected_pushes;
  /// SVS id -> batch whose apply finalized it.
  std::unordered_map<core::SvsId, size_t> svs_batch;
  /// In-process apply time of each batch's frames.
  std::vector<double> batch_apply_us;
  QueryPool probes;
  /// Expected answers to the probe pool once the whole fleet is ingested.
  DirectReference answers;
};

struct PassResult {
  double setup_s = 0.0;
  double fps = 0.0;
  /// The post-ingest read slice: frame-level evaluation and GPU charge of
  /// its correct replies, their count, and their latency p50 and tail.
  sim::QueryEvaluation eval;
  double gpu_ms_sum = 0.0;
  size_t reads = 0;
  double read_p50_ms = 0.0;
  Tail read_tail;
  std::vector<double> ack_ms;
  std::vector<double> batch_overhead_us;
  std::vector<double> push_ms;
  uint64_t pushes = 0;
  uint64_t gaps = 0;
  Prober* prober = nullptr;
  SutUsage usage;
  std::string sut_stats;
  std::vector<net::ClientCallStats> client_stats;
};

/// One pass: a fresh serving process with an empty in-memory WAL, the
/// writer streaming the whole fleet, the standing query and the prober.
/// Failed checks are counted in `report`.
PassResult RunIngestPass(const RunArgs& args, const IngestPlan& plan,
                         size_t pass, bool tracing, SpanLog* spans,
                         std::unique_ptr<Prober>* prober_slot,
                         Report* report) {
  PassResult result;
  SutProcess sut;
  std::vector<std::string> sut_args = {"sut", "ingest"};
  if (tracing) {
    sut_args.push_back("--trace-out");
    sut_args.push_back(TracePath(args, "sut-pass" + std::to_string(pass)));
  }
  const Clock::time_point setup_start = Clock::now();
  if (!sut.Start(sut_args)) {
    report->Fail("cannot spawn the serving process");
    return result;
  }
  const std::vector<std::string> ready = Split(sut.ReadLine());
  if (ready.size() != 3 || ready[0] != "READY") {
    report->Fail("serving process did not come up");
    return result;
  }
  const uint16_t port = static_cast<uint16_t>(std::stoi(ready[1]));
  const double gen_ms = std::stod(ready[2]);
  auto writer = net::Client::Connect("127.0.0.1", port);
  auto subscriber = net::Client::Connect("127.0.0.1", port);
  std::vector<net::Client> probe_clients;
  for (size_t c = 0; c < kProbeConnections; ++c) {
    auto client = net::Client::Connect("127.0.0.1", port);
    if (!client.ok()) break;
    probe_clients.push_back(std::move(*client));
  }
  if (!writer.ok() || !subscriber.ok() ||
      probe_clients.size() != kProbeConnections) {
    report->Fail("cannot connect to the serving process");
    return result;
  }
  for (const core::CameraId& camera : plan.cameras) {
    if (Status s = writer->CameraStart(camera); !s.ok()) {
      report->Fail("CameraStart: " + s.ToString());
      return result;
    }
  }
  std::vector<Clock::time_point> batch_sent(plan.batches.size());
  std::mutex push_mu;
  std::condition_variable push_cv;
  std::vector<std::pair<core::SvsId, Clock::time_point>> pushes;
  uint64_t gaps = 0;
  net::SubscribeRequest request;
  request.query = plan.probes.features[0];
  request.threshold = kMatchAll;
  auto subscription = subscriber->Subscribe(
      request, [&](const net::PushEvent& event) {
        const Clock::time_point now = Clock::now();
        std::lock_guard<std::mutex> lock(push_mu);
        if (event.kind == net::PushKind::kGap) ++gaps;
        if (event.kind == net::PushKind::kMatch) {
          pushes.emplace_back(event.svs_id, now);
        }
        push_cv.notify_all();
      });
  if (!subscription.ok()) {
    report->Fail("Subscribe: " + subscription.status().ToString());
    return result;
  }
  result.setup_s = (MsSince(setup_start, Clock::now()) - gen_ms) / 1e3;

  const pid_t pid = sut.pid();
  ThreadSampler sampler(pid);
  const UsageMark window_start = MarkUsage(&sut);
  std::vector<net::Client*> prober_connections;
  for (net::Client& client : probe_clients) {
    prober_connections.push_back(&client);
  }
  *prober_slot = std::make_unique<Prober>(prober_connections, &plan.probes,
                                          args.seed * 1000003 + pass, spans);
  Prober* prober = prober_slot->get();
  prober->Start();
  uint64_t accepted = 0;
  for (size_t b = 0; b < plan.batches.size(); ++b) {
    batch_sent[b] = Clock::now();
    auto reply = writer->IngestBatch(plan.batches[b]);
    const Clock::time_point acked = Clock::now();
    spans->Record("client.edge.ingest_batch", batch_sent[b], acked, 0, b + 1);
    const bool batch_ok = reply.ok() &&
                          reply->accepted == plan.batches[b].size() &&
                          reply->rejected == 0;
    report->Attempt(1, batch_ok ? 0 : 1);
    if (!batch_ok) {
      report->Note("IngestBatch " + std::to_string(b) + ": " +
                   (reply.ok() ? "frames rejected"
                               : reply.status().ToString()));
      continue;
    }
    accepted += reply->accepted;
    const double ack_ms = MsSince(batch_sent[b], acked);
    result.ack_ms.push_back(ack_ms);
    result.batch_overhead_us.push_back(ack_ms * 1e3 - plan.batch_apply_us[b]);
  }
  const Clock::time_point stream_end = Clock::now();
  result.fps = static_cast<double>(plan.frames) /
               (MsSince(batch_sent.front(), stream_end) / 1e3);
  prober->Stop();
  // The serving process is accounted over the stream: batches and probes.
  const UsageMark window_end = MarkUsage(&sut);
  sampler.Stop();
  AddWindow(window_start, window_end,
            static_cast<double>(plan.batches.size() + prober->attempted),
            &result.usage);
  result.usage.threads_peak = sampler.peak();

  // Every finalized segment must be pushed; wait for the stragglers.
  {
    std::unique_lock<std::mutex> lock(push_mu);
    push_cv.wait_for(lock, std::chrono::seconds(10), [&] {
      return pushes.size() >= plan.expected_pushes.size();
    });
    std::set<core::SvsId> pushed;
    for (const auto& [id, at] : pushes) {
      pushed.insert(id);
      auto batch = plan.svs_batch.find(id);
      if (batch != plan.svs_batch.end() && batch->second < batch_sent.size()) {
        result.push_ms.push_back(MsSince(batch_sent[batch->second], at));
      }
    }
    result.pushes = pushes.size();
    result.gaps = gaps;
    report->Attempt(1, 0);
    if (pushed != plan.expected_pushes || pushes.size() != pushed.size() ||
        gaps != 0) {
      report->Fail("pass " + std::to_string(pass) + ": " +
                   std::to_string(pushes.size()) + " pushes, " +
                   std::to_string(gaps) + " gaps, expected " +
                   std::to_string(plan.expected_pushes.size()) + " pushes");
    }
  }
  auto monitor = writer->MonitorStats();
  report->Attempt(1, 0);
  if (!monitor.ok() || accepted != plan.frames ||
      monitor->ingest.svs_created != plan.expected_svs) {
    report->Fail(
        "pass " + std::to_string(pass) + ": accepted " +
        std::to_string(accepted) + " of " + std::to_string(plan.frames) +
        " frames, svs created " +
        (monitor.ok() ? std::to_string(monitor->ingest.svs_created) : "?") +
        ", in-process replay " + std::to_string(plan.expected_svs));
  }

  // The whole fleet is in and every push delivered, so the server is idle.
  // Read the freshly built index closed loop for a fixed slice, each
  // connection cycling through the pool from its own offset: every reply
  // must equal the in-process replay's answer.
  struct ReadLane {
    std::vector<double> ms;
    sim::QueryEvaluation eval;
    double gpu_ms_sum = 0.0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;
  };
  std::vector<ReadLane> lanes(kReadConnections);
  const Clock::time_point slice_end =
      Clock::now() + std::chrono::milliseconds(kReadSliceMs);
  std::vector<std::thread> readers;
  for (size_t c = 0; c < kReadConnections; ++c) {
    readers.emplace_back([&, c] {
      ReadLane& lane = lanes[c];
      const size_t n = plan.probes.features.size();
      for (size_t q = c * n / kReadConnections; Clock::now() < slice_end;
           q = (q + 1) % n) {
        const Clock::time_point sent = Clock::now();
        auto reply = probe_clients[c].DirectQuery(plan.probes.features[q]);
        const Clock::time_point done = Clock::now();
        spans->Record("client.edge.read", sent, done, 0, q + 1);
        const std::string why =
            reply.ok()
                ? CompareAnswers(plan.answers.answers[q], ToAnswer(*reply))
                : reply.status().ToString();
        ++lane.attempted;
        if (!why.empty()) {
          ++lane.failed;
          if (lane.failures.size() < 3) {
            lane.failures.push_back("post-ingest query " + std::to_string(q) +
                                    ": " + why);
          }
          continue;
        }
        lane.eval += plan.answers.evals[q];
        lane.gpu_ms_sum += reply->total_gpu_ms;
        lane.ms.push_back(MsSince(sent, done));
      }
    });
  }
  for (std::thread& t : readers) t.join();
  std::vector<double> read_ms;
  for (const ReadLane& lane : lanes) {
    report->Attempt(lane.attempted, lane.failed);
    for (const std::string& f : lane.failures) report->Note(f);
    result.eval += lane.eval;
    result.gpu_ms_sum += lane.gpu_ms_sum;
    read_ms.insert(read_ms.end(), lane.ms.begin(), lane.ms.end());
  }
  result.reads = read_ms.size();
  result.read_p50_ms = Percentile(read_ms, 0.5);
  result.read_tail = TailAt(read_ms, kReadTailQ);

  const ProcSample end_sample = ReadProc(pid);
  result.client_stats = {writer->call_stats(), subscriber->call_stats()};
  for (net::Client& client : probe_clients) {
    result.client_stats.push_back(client.call_stats());
  }
  (void)subscriber->Unsubscribe(*subscription);
  writer->Close();
  subscriber->Close();
  probe_clients.clear();
  const SutProcess::Exit exit = sut.Stop();
  if (!exit.clean) report->Invalidate("serving process did not exit cleanly");
  result.sut_stats = exit.stats;
  result.usage.peak_rss_mb = static_cast<double>(end_sample.vm_hwm_kb) / 1024.0;
  result.prober = prober;
  return result;
}

int RunIngest(const RunArgs& args) {
  Report report;
  SpanLog spans;

  // Inputs and the in-process reference replay (not part of set-up).
  Fleet fleet(IngestFleetOptions(), &spans);
  sim::Deployment& deployment = fleet.deployment;
  const std::vector<core::FrameObservation> frames = GlobalOrder(&deployment);
  IngestPlan plan;
  for (const auto& camera : deployment.cameras()) {
    plan.cameras.push_back(camera.camera);
  }
  for (size_t i = 0; i < frames.size(); i += kBatchFrames) {
    plan.batches.emplace_back(
        frames.begin() + static_cast<long>(i),
        frames.begin() + static_cast<long>(std::min(frames.size(), i + kBatchFrames)));
  }
  plan.frames = frames.size();
  core::VideoZilla reference(IndexOptions());
  std::vector<IngestTrace> replay(1);
  if (Status s = ReplayIngest(&reference, plan.cameras, frames,
                              /*flush=*/false, /*shadow=*/args.trace,
                              &replay[0]);
      !s.ok()) {
    report.Invalidate("reference replay failed: " + s.ToString());
    report.Print();
    return 1;
  }
  plan.expected_svs = reference.ingest_stats().svs_created;
  for (core::SvsId id : reference.svs_store().AllIds()) {
    auto svs = reference.svs_store().Get(id);
    if (svs.ok() && !(*svs)->features().empty()) plan.expected_pushes.insert(id);
  }
  for (const auto& [id, frame] : replay[0].svs_frame) {
    plan.svs_batch[id] = frame / kBatchFrames;
  }
  plan.batch_apply_us.assign(plan.batches.size(), 0.0);
  for (size_t f = 0; f < replay[0].per_frame_ms.size(); ++f) {
    plan.batch_apply_us[f / kBatchFrames] += replay[0].per_frame_ms[f] * 1e3;
  }
  plan.probes = MakeQueryPool(deployment, args.seed, kProbePerClass);
  reference.SetVerifier(&fleet.verifier);
  plan.answers = BuildDirectReference(&fleet, {&reference}, plan.probes);

  // Passes until the measured time is spent. A traced run spends the first
  // half untraced (the tracing-overhead baseline).
  std::vector<PassResult> passes;
  std::vector<std::unique_ptr<Prober>> probers;
  std::vector<bool> pass_traced;
  const Clock::time_point start = Clock::now();
  while (passes.size() < kMinPasses ||
         MsSince(start, Clock::now()) / 1e3 < args.seconds) {
    const bool tracing =
        args.trace && MsSince(start, Clock::now()) / 1e3 >= args.seconds / 2;
    if (tracing) spans.Enable();
    probers.emplace_back();
    passes.push_back(RunIngestPass(args, plan, passes.size(), tracing, &spans,
                                   &probers.back(), &report));
    pass_traced.push_back(tracing);
    if (passes.back().prober == nullptr) break;  // the pass could not run
    if (passes.size() >= 64) break;
  }

  std::vector<double> setup_s, fps, ack, probe, late, push, overhead, rss;
  std::vector<double> untraced_ack, traced_ack;
  // Per pass: the end-to-end ack latency is the median over passes, so a
  // burst of host steal inside a few passes does not move it.
  std::vector<double> ack_p50, ack_p90;
  size_t min_ack_beyond = SIZE_MAX;
  std::vector<net::ClientCallStats> client_stats;
  SutUsage usage;
  double wal_syncs = 0, wal_bytes = 0, pushes_sent = 0, push_drops = 0;
  double shed = 0, max_in_flight = 0, pushes = 0, gaps = 0, gpu_ms = 0;
  sim::QueryEvaluation eval;
  std::vector<double> read_p50, read_tail;
  size_t reads = 0;
  size_t min_read_beyond = SIZE_MAX;
  std::vector<double> append_us;
  for (size_t p = 0; p < passes.size(); ++p) {
    const PassResult& pass = passes[p];
    if (pass.prober == nullptr) continue;
    report.Attempt(pass.prober->attempted, pass.prober->failed);
    for (const std::string& f : pass.prober->failures) report.Note(f);
    setup_s.push_back(pass.setup_s);
    fps.push_back(pass.fps);
    rss.push_back(pass.usage.peak_rss_mb);
    ack.insert(ack.end(), pass.ack_ms.begin(), pass.ack_ms.end());
    ack_p50.push_back(Percentile(pass.ack_ms, 0.5));
    const Tail pass_ack_tail = TailAt(pass.ack_ms, kAckLatencyTailQ);
    ack_p90.push_back(pass_ack_tail.value);
    min_ack_beyond = std::min(min_ack_beyond, pass_ack_tail.beyond);
    std::vector<double>& phase_ack = pass_traced[p] ? traced_ack : untraced_ack;
    phase_ack.insert(phase_ack.end(), pass.ack_ms.begin(), pass.ack_ms.end());
    probe.insert(probe.end(), pass.prober->latency_ms.begin(),
                 pass.prober->latency_ms.end());
    late.insert(late.end(), pass.prober->late_ms.begin(),
                pass.prober->late_ms.end());
    push.insert(push.end(), pass.push_ms.begin(), pass.push_ms.end());
    overhead.insert(overhead.end(), pass.batch_overhead_us.begin(),
                    pass.batch_overhead_us.end());
    client_stats.insert(client_stats.end(), pass.client_stats.begin(),
                        pass.client_stats.end());
    // The serving process is accounted over untraced passes only: a traced
    // one also records spans in its decorators.
    if (!pass_traced[p]) {
      usage.threads_peak =
          std::max(usage.threads_peak, pass.usage.threads_peak);
      usage.cpu_ms += pass.usage.cpu_ms;
      usage.context_switches += pass.usage.context_switches;
      usage.ops += pass.usage.ops;
    }
    wal_syncs += JsonField(pass.sut_stats, "wal_syncs");
    wal_bytes += JsonField(pass.sut_stats, "wal_append_bytes");
    append_us.push_back(JsonField(pass.sut_stats, "wal_append_us_p50"));
    pushes_sent += JsonField(pass.sut_stats, "pushes_sent");
    push_drops += JsonField(pass.sut_stats, "push_drops");
    const std::string load = JsonObject(pass.sut_stats, "load");
    shed += JsonField(load, "shed");
    max_in_flight = std::max(max_in_flight, JsonField(load, "max_in_flight"));
    pushes += static_cast<double>(pass.pushes);
    gaps += static_cast<double>(pass.gaps);
    eval += pass.eval;
    gpu_ms += pass.gpu_ms_sum;
    reads += pass.reads;
    read_p50.push_back(pass.read_p50_ms);
    read_tail.push_back(pass.read_tail.value);
    min_read_beyond = std::min(min_read_beyond, pass.read_tail.beyond);
  }
  const double n_passes = static_cast<double>(fps.size());
  const double frames_acked = n_passes * static_cast<double>(plan.frames);

  std::printf("workload ingest: %zu passes of %zu frames in %zu-frame "
              "batches, 1 closed-loop writer, 1 match-all subscriber, "
              "open-loop prober every %.0f ms; WAL: in-memory io::Env, "
              "group commit %lld ms (server default)\n",
              fps.size(), plan.frames, kBatchFrames, kProbePeriodMs,
              static_cast<long long>(net::ServerOptions().wal_fsync_interval_ms));
  std::printf("prober lateness: p50 %.3f ms, max %.3f ms over %zu probes\n",
              Percentile(late, 0.5),
              late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()),
              late.size());
  PrintQuantiles("ingest ack", ack);
  PrintQuantiles("probe latency", probe);
  std::printf("frames/s per pass:");
  for (double f : fps) std::printf(" %.1f", f);
  std::printf("\nack p90 ms per pass:");
  for (double t : ack_p90) std::printf(" %.3f", t);
  std::printf("\n");
  if (fps.empty()) {
    report.Invalidate("no ingest pass completed");
    report.Print();
    return 1;
  }
  const Tail ack_tail = TailAt(ack, kAckTailQ);
  if (!ack_tail.valid) report.Invalidate("ack tail has too few samples");
  if (min_ack_beyond < kMinBeyond) {
    report.Invalidate("a pass has too few acks beyond the ack latency tail");
  }
  const Tail probe_tail = TailAt(probe, kProbeTailQ);
  if (!probe_tail.valid) report.Invalidate("probe tail has too few samples");
  if (min_read_beyond < kMinBeyond) {
    report.Invalidate("a read slice has too few samples beyond p90");
  }
  // The stall-mode ack tail, the probe latencies and the post-ingest reads
  // are per-layer figures (wal.ack_tail_ms, probe.*, post_ingest.*). The
  // first three are waits on a handful of CPU-bound index rebuilds per pass
  // and moved between runs by more than any bound an end-to-end metric may
  // have as the shared host's speed drifted (the probe median by more than
  // the drift itself, since slower rebuilds also catch more probes); the
  // ~0.1 ms reads moved by 0.21-0.29 of their median over sets of runs
  // (NOTES.md).
  const std::string per_slice =
      "median over " + std::to_string(read_p50.size()) + " passes' " +
      std::to_string(kReadSliceMs) + " ms read slices of " +
      std::to_string(reads / read_p50.size()) + " replies on average, min " +
      std::to_string(min_read_beyond) + " beyond p90";
  std::printf("ingest_ack_tail_ms %.6f ms: IngestBatch ack %s\n",
              ack_tail.value, TailDetail(ack_tail).c_str());
  std::printf("probe_p50_ms %.6f ms: %s from due time\n",
              Percentile(probe, 0.5), MedianDetail(probe.size()).c_str());
  std::printf("probe_tail_ms %.6f ms: %s from due time\n", probe_tail.value,
              TailDetail(probe_tail).c_str());
  std::printf("post_ingest_read_p50_ms %.6f ms: %s\n",
              Percentile(read_p50, 0.5), per_slice.c_str());
  std::printf("post_ingest_read_tail_ms %.6f ms: p90, %s\n",
              Percentile(read_tail, 0.5), per_slice.c_str());
  std::printf("read p90 ms per pass:");
  for (double t : read_tail) std::printf(" %.3f", t);
  std::printf("\n");
  if (!args.trace) {
    const std::string per_pass =
        "median over " + std::to_string(ack_p50.size()) + " passes of " +
        std::to_string(ack.size() / ack_p50.size()) +
        " IngestBatch acks, min " + std::to_string(min_ack_beyond) +
        " beyond p90";
    report.Add("setup_s", "s", Percentile(setup_s, 0.5),
               "p50 of " + std::to_string(setup_s.size()) +
                   " set-ups (server up, 24 cameras started, subscribed)");
    report.Add("peak_rss_mb", "MiB", Percentile(rss, 0.5),
               "p50 over passes of the SUT's VmHWM");
    report.Add("throughput", "1/s", Percentile(fps, 0.5),
               "ingest_fps: frames acked/s, p50 of " +
                   std::to_string(fps.size()) + " passes over frames 0.." +
                   std::to_string(plan.frames));
    report.Add("latency_p50_ms", "ms", Percentile(ack_p50, 0.5),
               "ingest_ack_p50_ms: p50, " + per_pass);
    report.Add("latency_tail_ms", "ms", Percentile(ack_p90, 0.5),
               "ingest_ack_p90_ms: p90 (group-commit mode), " + per_pass);
    report.Add("answer_f1", "ratio", eval.F1(),
               "frame-level, post-ingest answers to " + std::to_string(reads) +
                   " queries");
    report.Add("answer_gpu_ms", "sim-ms",
               reads > 0 ? gpu_ms / static_cast<double>(reads) : 0.0,
               "mean total_gpu_ms, post-ingest answers");
    report.Print();
    return 0;
  }

  // Per-layer metrics (traced run).
  report.Add("trace.overhead_us_p50", "us",
             (Percentile(traced_ack, 0.5) - Percentile(untraced_ack, 0.5)) * 1e3,
             "ack p50 traced passes minus untraced passes");
  report.Add("coord.self_us_p50", "us", 0.0, "no coordinator here");
  report.Add("coord.legs_per_query", "count", 0.0);
  report.Add("coord.pruned_share", "ratio", 0.0);
  report.Add("edge.rpc_overhead_us_p50", "us", 0.0, "not measured here");
  report.Add("edge.batch_overhead_us_p50", "us", Percentile(overhead, 0.5),
             "ack minus in-process apply of the same frames, " +
                 MedianDetail(overhead.size()));
  AddUsage(usage, &report);
  AddClientStats(client_stats, &report);
  AddQueryLayers(plan.answers,
                 "in-process replay of the probe pool on the final state",
                 &report);
  AddIngestLayers(replay, {&reference}, &report);
  report.Add("wal.fsyncs", "count", wal_syncs / n_passes, "per pass");
  report.Add("wal.frames_per_fsync", "count",
             wal_syncs > 0 ? frames_acked / wal_syncs : 0.0);
  report.Add("wal.bytes_per_frame", "B", wal_bytes / frames_acked);
  report.Add("wal.append_us_p50", "us", Percentile(append_us, 0.5),
             "p50 over passes of the per-pass p50");
  report.Add("wal.ack_p50_ms", "ms", Percentile(ack, 0.5),
             MedianDetail(ack.size()));
  report.Add("wal.ack_tail_ms", "ms", ack_tail.value,
             "ingest_ack_tail_ms: " + TailDetail(ack_tail) + ", stall mode");
  report.Add("sub.evaluated", "count", (pushes_sent + push_drops) / n_passes,
             "match-all events per pass");
  report.Add("sub.push_p50_ms", "ms", Percentile(push, 0.5),
             "push arrival minus send of the closing batch, " +
                 MedianDetail(push.size()));
  report.Add("sub.delivery_share", "ratio",
             plan.expected_pushes.empty()
                 ? 0.0
                 : pushes / (n_passes *
                             static_cast<double>(plan.expected_pushes.size())));
  report.Add("sub.dropped", "count", push_drops);
  report.Add("sub.gaps", "count", gaps);
  report.Add("admission.shed", "count", shed);
  report.Add("admission.max_in_flight", "count", max_in_flight);
  report.Add("probe.late_ms_max", "ms",
             late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()));
  report.Add("probe.p50_ms", "ms", Percentile(probe, 0.5),
             "probe_p50_ms: " + MedianDetail(probe.size()) + ", from due time");
  report.Add("probe.tail_ms", "ms", probe_tail.value,
             "probe_tail_ms: " + TailDetail(probe_tail) + ", from due time");
  report.Add("post_ingest.read_p50_ms", "ms", Percentile(read_p50, 0.5),
             "idle-server DirectQuery p50, " + per_slice);
  report.Add("post_ingest.read_tail_ms", "ms", Percentile(read_tail, 0.5),
             "idle-server DirectQuery p90, " + per_slice);
  if (!spans.WriteJsonLines(TracePath(args, "loadgen"))) {
    report.Invalidate("cannot write the span log");
  }
  std::printf("spans recorded: %zu (written to %s)\n", spans.size(),
              TracePath(args, "loadgen").c_str());
  report.Print();
  return 0;
}

}  // namespace

int RunWorkload(const RunArgs& args) {
  if (args.workload == "direct") return RunDirect(args);
  if (args.workload == "ingest") return RunIngest(args);
  std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
  return 2;
}

}  // namespace vz::perfbench
