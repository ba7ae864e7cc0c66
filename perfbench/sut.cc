// The system under test, run as its own process so /proc and the kernel's
// accounting see only the serving side. `vzbench sut ingest` serves one
// durable edge; `vzbench sut direct` serves two edges holding half the fleet
// each behind a coordinator. Both print "READY ..." once serving, answer
// each "usage" line on stdin with one "USAGE ..." line, shut down on any
// other line (or EOF), and print one "STATS {json}" line.
#include "sut.h"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_stats.h"
#include "mem_env.h"
#include "net/coordinator.h"
#include "net/server.h"
#include "replay.h"

namespace vz::perfbench {
namespace {

/// Answers "usage" with the process's context switches so far, voluntary
/// plus involuntary, exited threads included (getrusage(RUSAGE_SELF)), until
/// another line or EOF asks it to quit.
void ServeUntilQuit() {
  for (std::string line; std::getline(std::cin, line) && line == "usage";) {
    struct rusage usage {};
    ::getrusage(RUSAGE_SELF, &usage);
    std::printf("USAGE %llu\n",
                static_cast<unsigned long long>(usage.ru_nvcsw + usage.ru_nivcsw));
    std::fflush(stdout);
  }
}

std::string LoadStatsJson(const core::QueryLoadStats& load) {
  return "{\"shed\":" + std::to_string(load.shed) +
         ",\"max_in_flight\":" + std::to_string(load.max_in_flight) + "}";
}

int ServeIngest(const std::string& trace_path) {
  SpanLog spans;
  if (!trace_path.empty()) spans.Enable();
  // Input generation (the heavy model's ground truth) is not set-up.
  const Clock::time_point gen_start = Clock::now();
  Fleet fleet(IngestFleetOptions(), &spans);
  fleet.deployment.observations();
  const double gen_ms = MsSince(gen_start, Clock::now());

  MemEnv env(&spans);
  core::VideoZilla system(IndexOptions());
  system.SetVerifier(&fleet.verifier);
  net::ServerOptions options;
  options.wal_dir = "wal";
  options.env = &env;
  net::Server server(&system, options);
  if (Status s = server.Start(); !s.ok()) {
    std::fprintf(stderr, "sut: ingest server start failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::printf("READY %u %.6f\n", static_cast<unsigned>(server.port()),
              gen_ms);
  std::fflush(stdout);
  ServeUntilQuit();
  server.Shutdown();

  const MemEnv::Stats wal = env.stats();
  const net::ServerStats stats = server.stats();
  std::printf(
      "STATS {\"wal_append_bytes\":%llu,\"wal_syncs\":%llu,"
      "\"wal_append_us_p50\":%.6g,\"pushes_sent\":%llu,"
      "\"push_drops\":%llu,\"load\":%s}\n",
      static_cast<unsigned long long>(wal.append_bytes),
      static_cast<unsigned long long>(wal.syncs),
      Percentile(wal.append_us, 0.5),
      static_cast<unsigned long long>(stats.pushes_sent),
      static_cast<unsigned long long>(stats.push_drops),
      LoadStatsJson(system.query_load_stats()).c_str());
  std::fflush(stdout);
  if (!trace_path.empty()) spans.WriteJsonLines(trace_path);
  return 0;
}

int ServeDirect(const std::string& trace_path) {
  SpanLog spans;
  if (!trace_path.empty()) spans.Enable();
  // Input generation (the fleet's observations) is not part of set-up.
  const Clock::time_point gen_start = Clock::now();
  Fleet fleet(DirectFleetOptions(), &spans);
  fleet.deployment.observations();
  const double gen_ms = MsSince(gen_start, Clock::now());

  const auto shards = fleet.deployment.PartitionCameras(kShards);
  std::vector<std::unique_ptr<core::VideoZilla>> edges;
  std::vector<std::unique_ptr<net::Server>> servers;
  net::CoordinatorOptions coord_options;
  coord_options.max_connections = 16;
  coord_options.omd = IndexOptions().omd;
  coord_options.inter = IndexOptions().inter;
  coord_options.boundary_scale = IndexOptions().boundary_scale;
  for (const auto& shard : shards) {
    edges.push_back(std::make_unique<core::VideoZilla>(IndexOptions()));
    if (Status s = fleet.deployment.IngestShard(edges.back().get(), shard);
        !s.ok()) {
      std::fprintf(stderr, "sut: shard ingest failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    edges.back()->SetVerifier(&fleet.verifier);
    net::ServerOptions edge_options;
    edge_options.max_connections = 16;
    servers.push_back(
        std::make_unique<net::Server>(edges.back().get(), edge_options));
    if (Status s = servers.back()->Start(); !s.ok()) {
      std::fprintf(stderr, "sut: edge start failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    coord_options.edges.push_back({"127.0.0.1", servers.back()->port()});
  }
  net::Coordinator coordinator(coord_options);
  if (Status s = coordinator.Start(); !s.ok()) {
    std::fprintf(stderr, "sut: coordinator start failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::printf("READY %u %u %u %.6f\n",
              static_cast<unsigned>(coordinator.port()),
              static_cast<unsigned>(servers[0]->port()),
              static_cast<unsigned>(servers[1]->port()), gen_ms);
  std::fflush(stdout);
  ServeUntilQuit();
  coordinator.Shutdown();
  for (auto& server : servers) server->Shutdown();

  const net::CoordinatorStats coord = coordinator.stats();
  std::printf(
      "STATS {\"coord_requests\":%llu,\"fanout_legs\":%llu,"
      "\"pruned_legs\":%llu,\"load0\":%s,\"load1\":%s}\n",
      static_cast<unsigned long long>(coord.requests_served),
      static_cast<unsigned long long>(coord.fanout_legs),
      static_cast<unsigned long long>(coord.pruned_legs),
      LoadStatsJson(edges[0]->query_load_stats()).c_str(),
      LoadStatsJson(edges[1]->query_load_stats()).c_str());
  std::fflush(stdout);
  if (!trace_path.empty()) spans.WriteJsonLines(trace_path);
  return 0;
}

}  // namespace

int RunSut(const std::string& workload, const std::string& trace_path) {
  // Never outlive the load generator that spawned us.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (workload == "ingest") return ServeIngest(trace_path);
  if (workload == "direct") return ServeDirect(trace_path);
  std::fprintf(stderr, "sut: unknown workload %s\n", workload.c_str());
  return 2;
}

}  // namespace vz::perfbench
