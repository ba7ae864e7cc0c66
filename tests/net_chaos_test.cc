// Chaos drills of the serving layer: a seeded TCP fault proxy
// (net::ChaosProxy driven by sim::WireFaultInjector) sits between client and
// server and delays, splits, truncates, bit-flips, blackholes and resets the
// byte stream. The contracts under test are the PR's headline guarantees:
//
//   - exactly-once: despite reconnect-retries, every frame is applied on the
//     server exactly once (no loss, no double-apply);
//   - transparency: query results through the proxy are bit-identical to
//     results over a direct connection;
//   - liveness: no call and no connection ever hangs — deadlines, eviction
//     and reconnects always converge.
//
// The sweep runs `VZ_CHAOS_SEEDS` seeds (default 50; sanitizer presets size
// it down to stay within the ctest timeout).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/videozilla.h"
#include "net/chaos_proxy.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "sim/dataset.h"
#include "sim/wire_fault_injector.h"

namespace vz::net {
namespace {

using core::VideoZilla;
using core::VideoZillaOptions;

size_t NumChaosSeeds() {
  if (const char* env = std::getenv("VZ_CHAOS_SEEDS")) {
    const long parsed = std::atol(env);
    if (parsed > 0) return static_cast<size_t>(parsed);
  }
  return 50;
}

sim::DeploymentOptions SmallDeployment() {
  sim::DeploymentOptions options;
  options.cities = 1;
  options.downtown_per_city = 1;
  options.highway_cameras = 1;
  options.train_stations = 1;
  options.harbors = 1;
  options.feed_duration_ms = 90'000;
  options.fps = 1.0;
  options.feature_dim = 32;
  options.seed = 29;
  return options;
}

VideoZillaOptions SmallSystemOptions() {
  VideoZillaOptions options;
  options.segmenter.t_max_ms = 20'000;
  options.enable_keyframe_selection = false;
  options.ingest.expected_feature_dim = 32;
  return options;
}

// The fault mix of the drill: modest per-chunk probabilities of every fault
// the injector knows, summing well below 1 so most chunks pass clean.
sim::WireFaultInjectorOptions DrillFaults(uint64_t seed) {
  sim::WireFaultInjectorOptions faults;
  faults.seed = seed;
  faults.delay_probability = 0.05;
  faults.delay_ms = 2;
  faults.split_probability = 0.10;
  faults.truncate_probability = 0.04;
  faults.bitflip_probability = 0.05;
  faults.bitflip_count = 1;
  faults.blackhole_probability = 0.02;
  faults.reset_probability = 0.04;
  return faults;
}

// Client tuned for chaos: short I/O deadline (blackholes must not stall the
// run), tiny backoff, and a reconnect budget that rides out consecutive
// faults.
ClientOptions ChaosClientOptions(uint64_t seed) {
  ClientOptions options;
  options.connect_timeout_ms = 1'000;
  options.io_timeout_ms = 250;
  options.max_reconnects = 50;
  options.backoff_floor_ms = 1;
  options.backoff_cap_ms = 20;
  options.backoff_seed = seed + 101;
  options.session_id = seed * 1'000 + 1;
  return options;
}

// One full drill at one seed: ingest through the chaos proxy, then assert
// exactly-once application, proxied-vs-direct query transparency, and a
// fully drained server.
void RunChaosDrill(uint64_t seed, sim::Deployment& deployment,
                   size_t num_frames) {
  VideoZilla system(SmallSystemOptions());
  ServerOptions server_options;
  server_options.idle_poll_ms = 5;
  server_options.read_timeout_ms = 500;
  server_options.write_timeout_ms = 500;
  Server server(&system, server_options);
  ASSERT_TRUE(server.Start().ok());

  ChaosProxyOptions proxy_options;
  proxy_options.upstream_port = server.port();
  proxy_options.chunk_bytes = 512;  // several fault rolls per RPC
  proxy_options.idle_poll_ms = 5;
  proxy_options.faults = DrillFaults(seed);
  ChaosProxy proxy(proxy_options);
  ASSERT_TRUE(proxy.Start().ok());

  auto client_or =
      Client::Connect("127.0.0.1", proxy.port(), ChaosClientOptions(seed));
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  Client client = std::move(*client_or);

  for (const auto& info : deployment.cameras()) {
    ASSERT_TRUE(client.CameraStart(info.camera).ok());
  }
  const auto& observations = deployment.observations();
  const size_t count = std::min(num_frames, observations.size());
  for (size_t i = 0; i < count; ++i) {
    Status status = client.IngestFrame(observations[i]);
    ASSERT_TRUE(status.ok()) << "frame " << i << ": " << status.ToString();
  }
  ASSERT_TRUE(client.Flush().ok());

  // Exactly-once at the application layer: every frame applied once, none
  // lost, none double-applied — the wire-level dedup absorbed every
  // retried duplicate before the ingestion guard could see it.
  const core::IngestStats& ingest = system.ingest_stats();
  EXPECT_EQ(ingest.frames_offered, count) << "seed " << seed;
  EXPECT_EQ(ingest.duplicates_dropped, 0u) << "seed " << seed;
  EXPECT_EQ(ingest.out_of_order_dropped, 0u) << "seed " << seed;

  // Transparency: a query through the chaos proxy returns bit-identical
  // results to the same query over a clean direct connection.
  auto direct_or = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(direct_or.ok());
  Client direct = std::move(*direct_or);
  Rng rng(seed + 7);
  const FeatureVector query = deployment.MakeQueryFeature(0, &rng);
  auto proxied_result = client.DirectQuery(query);
  ASSERT_TRUE(proxied_result.ok()) << proxied_result.status().ToString();
  auto direct_result = direct.DirectQuery(query);
  ASSERT_TRUE(direct_result.ok());
  EXPECT_EQ(proxied_result->candidate_svss, direct_result->candidate_svss);
  EXPECT_EQ(proxied_result->matched_svss, direct_result->matched_svss);
  EXPECT_EQ(proxied_result->total_gpu_ms, direct_result->total_gpu_ms);
  EXPECT_EQ(proxied_result->frames_processed,
            direct_result->frames_processed);
  EXPECT_EQ(proxied_result->cameras_searched,
            direct_result->cameras_searched);

  // Liveness: once the clients leave, every server-side connection drains —
  // nothing is wedged in a read or write.
  client.Close();
  direct.Close();
  for (int waited = 0;
       server.stats().connections_active > 0 && waited < 400; ++waited) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.stats().connections_active, 0u) << "seed " << seed;

  const ChaosProxy::Stats chaos = proxy.stats();
  EXPECT_GT(chaos.ledger.chunks_seen, 0u);
  proxy.Shutdown();
  server.Shutdown();
}

TEST(NetChaosTest, MultiSeedChaosSweepIsExactlyOnceAndTransparent) {
  sim::Deployment deployment(SmallDeployment());
  (void)deployment.observations();
  const size_t seeds = NumChaosSeeds();
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    RunChaosDrill(seed, deployment, /*num_frames=*/40);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(NetChaosTest, FaultFreeProxyIsFullyTransparent) {
  sim::Deployment deployment(SmallDeployment());
  const auto& observations = deployment.observations();
  const size_t count = std::min<size_t>(80, observations.size());

  // Control: the same prefix ingested in process.
  VideoZilla control(SmallSystemOptions());
  for (const auto& info : deployment.cameras()) {
    ASSERT_TRUE(control.CameraStart(info.camera).ok());
  }
  for (size_t i = 0; i < count; ++i) {
    ASSERT_TRUE(control.IngestFrame(observations[i]).ok());
  }
  ASSERT_TRUE(control.Flush().ok());

  VideoZilla system(SmallSystemOptions());
  Server server(&system, {});
  ASSERT_TRUE(server.Start().ok());
  ChaosProxyOptions proxy_options;
  proxy_options.upstream_port = server.port();
  // All fault probabilities zero: the proxy must be invisible.
  ChaosProxy proxy(proxy_options);
  ASSERT_TRUE(proxy.Start().ok());
  auto client = Client::Connect("127.0.0.1", proxy.port());
  ASSERT_TRUE(client.ok());
  for (const auto& info : deployment.cameras()) {
    ASSERT_TRUE(client->CameraStart(info.camera).ok());
  }
  for (size_t i = 0; i < count; ++i) {
    ASSERT_TRUE(client->IngestFrame(observations[i]).ok());
  }
  ASSERT_TRUE(client->Flush().ok());

  EXPECT_EQ(system.ingest_stats().frames_offered,
            control.ingest_stats().frames_offered);
  EXPECT_EQ(system.ingest_stats().svs_created,
            control.ingest_stats().svs_created);
  EXPECT_EQ(system.svs_store().size(), control.svs_store().size());

  Rng rng(5);
  const FeatureVector query = deployment.MakeQueryFeature(1, &rng);
  auto expected = control.DirectQuery(query);
  ASSERT_TRUE(expected.ok());
  auto proxied = client->DirectQuery(query);
  ASSERT_TRUE(proxied.ok());
  EXPECT_EQ(proxied->candidate_svss, expected->candidate_svss);
  EXPECT_EQ(proxied->matched_svss, expected->matched_svss);
  EXPECT_EQ(proxied->total_gpu_ms, expected->total_gpu_ms);

  // Not a single retry or reconnect was needed, and the ledger confirms a
  // fault-free run.
  EXPECT_EQ(client->call_stats().transport_failures, 0u);
  EXPECT_EQ(client->call_stats().reconnects, 0u);
  const ChaosProxy::Stats stats = proxy.stats();
  EXPECT_EQ(stats.ledger.chunks_clean, stats.ledger.chunks_seen);
  EXPECT_GE(stats.connections_relayed, 1u);
  client->Close();
  proxy.Shutdown();
  server.Shutdown();
}

// --- Multiplexed framing under chaos. ---

// The batched-ingest drill: the same chaos mix, but frames travel in
// kIngestBatch RPCs. A retried batch after a reconnect must be answered
// from the dedup window with the identical accept/reject counts, never
// re-applied — exactly-once holds at batch granularity too.
void RunBatchedChaosDrill(uint64_t seed, sim::Deployment& deployment,
                          size_t num_frames) {
  VideoZilla system(SmallSystemOptions());
  ServerOptions server_options;
  server_options.idle_poll_ms = 5;
  server_options.read_timeout_ms = 500;
  server_options.write_timeout_ms = 500;
  Server server(&system, server_options);
  ASSERT_TRUE(server.Start().ok());

  ChaosProxyOptions proxy_options;
  proxy_options.upstream_port = server.port();
  proxy_options.chunk_bytes = 512;
  proxy_options.idle_poll_ms = 5;
  proxy_options.faults = DrillFaults(seed);
  ChaosProxy proxy(proxy_options);
  ASSERT_TRUE(proxy.Start().ok());

  // A batch request spans several proxy chunks (a 4-frame batch with busy
  // frames is ~4KB, i.e. ~8 fault rolls per attempt versus ~1 for a
  // per-frame RPC), so per-attempt survival is far lower than in the
  // per-frame drill. The retry budget scales up to match; exactly-once must
  // still hold however many retries the mix forces.
  ClientOptions client_options = ChaosClientOptions(seed);
  client_options.max_reconnects = 400;
  auto client_or =
      Client::Connect("127.0.0.1", proxy.port(), client_options);
  ASSERT_TRUE(client_or.ok()) << client_or.status().ToString();
  Client client = std::move(*client_or);

  for (const auto& info : deployment.cameras()) {
    ASSERT_TRUE(client.CameraStart(info.camera).ok());
  }
  const auto& observations = deployment.observations();
  const size_t count = std::min(num_frames, observations.size());
  uint64_t accepted_total = 0;
  const size_t kBatch = 4;
  for (size_t begin = 0; begin < count; begin += kBatch) {
    const size_t end = std::min(begin + kBatch, count);
    std::vector<core::FrameObservation> batch(observations.begin() + begin,
                                              observations.begin() + end);
    auto reply = client.IngestBatch(batch);
    ASSERT_TRUE(reply.ok())
        << "batch at " << begin << ": " << reply.status().ToString();
    accepted_total += reply->accepted;
    EXPECT_EQ(reply->rejected, 0u) << "batch at " << begin;
  }
  ASSERT_TRUE(client.Flush().ok());

  // Exactly-once despite chaos-retried batches: every frame applied once.
  EXPECT_EQ(accepted_total, count) << "seed " << seed;
  const core::IngestStats& ingest = system.ingest_stats();
  EXPECT_EQ(ingest.frames_offered, count) << "seed " << seed;
  EXPECT_EQ(ingest.duplicates_dropped, 0u) << "seed " << seed;
  EXPECT_EQ(ingest.out_of_order_dropped, 0u) << "seed " << seed;

  client.Close();
  proxy.Shutdown();
  server.Shutdown();
}

TEST(NetChaosTest, BatchedIngestChaosSweepIsExactlyOnce) {
  sim::Deployment deployment(SmallDeployment());
  (void)deployment.observations();
  const size_t seeds = NumChaosSeeds();
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    RunBatchedChaosDrill(seed, deployment, /*num_frames=*/40);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// A subscriber on a clean connection while chaos-retried ingest runs
// through the proxy: double-applied ingest would finalize extra segments
// and surface as extra pushes, and any demux slip would break the dense
// as-delivered sequence. The subscriber is the exactly-once witness.
TEST(NetChaosTest, SubscriberSeesEachSegmentOnceThroughChaoticIngest) {
  sim::Deployment deployment(SmallDeployment());
  (void)deployment.observations();
  const size_t seeds = std::min<size_t>(NumChaosSeeds(), 8);
  for (uint64_t seed = 1; seed <= seeds; ++seed) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    VideoZilla system(SmallSystemOptions());
    ServerOptions server_options;
    server_options.idle_poll_ms = 5;
    server_options.read_timeout_ms = 500;
    server_options.write_timeout_ms = 500;
    Server server(&system, server_options);
    ASSERT_TRUE(server.Start().ok());
    ChaosProxyOptions proxy_options;
    proxy_options.upstream_port = server.port();
    proxy_options.chunk_bytes = 512;
    proxy_options.idle_poll_ms = 5;
    proxy_options.faults = DrillFaults(seed + 500);
    ChaosProxy proxy(proxy_options);
    ASSERT_TRUE(proxy.Start().ok());

    // Subscriber on a direct connection (its standing query must survive
    // the whole drill; a connection-scoped subscription through the proxy
    // would die at the first reset).
    auto subscriber = Client::Connect("127.0.0.1", server.port());
    ASSERT_TRUE(subscriber.ok());
    SubscribeRequest match_all;
    match_all.query = FeatureVector(std::vector<float>(32, 0.0f));
    match_all.threshold = 1e12;
    std::mutex mu;
    std::vector<PushEvent> events;
    auto sub_id = subscriber->Subscribe(
        match_all, [&](const PushEvent& event) {
          std::lock_guard<std::mutex> lock(mu);
          events.push_back(event);
        });
    ASSERT_TRUE(sub_id.ok()) << sub_id.status().ToString();

    auto ingester =
        Client::Connect("127.0.0.1", proxy.port(), ChaosClientOptions(seed));
    ASSERT_TRUE(ingester.ok());
    for (const auto& info : deployment.cameras()) {
      ASSERT_TRUE(ingester->CameraStart(info.camera).ok());
    }
    const auto& observations = deployment.observations();
    const size_t count = std::min<size_t>(40, observations.size());
    for (size_t i = 0; i < count; ++i) {
      ASSERT_TRUE(ingester->IngestFrame(observations[i]).ok()) << i;
    }
    ASSERT_TRUE(ingester->Flush().ok());

    const uint64_t segments = system.ingest_stats().svs_created;
    EXPECT_EQ(system.ingest_stats().frames_offered, count);
    for (int waited = 0; waited < 2'000; ++waited) {
      std::lock_guard<std::mutex> lock(mu);
      if (events.size() >= segments) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::lock_guard<std::mutex> lock(mu);
    // One push per finalized segment — a duplicate would mean a retried
    // frame was double-applied somewhere behind the dedup window.
    ASSERT_EQ(events.size(), segments) << "seed " << seed;
    uint64_t expected_sequence = 0;
    for (const PushEvent& event : events) {
      EXPECT_EQ(event.subscription_id, *sub_id);
      EXPECT_EQ(event.sequence, expected_sequence++);
      EXPECT_EQ(event.kind, PushKind::kMatch);
    }

    subscriber->Close();
    ingester->Close();
    proxy.Shutdown();
    server.Shutdown();
  }
}

// A subscription through the chaos proxy is connection-scoped: a reset
// kills it silently (at-most-once, no resurrections). The client's contract
// is that a re-subscribe on the healed connection gets a *fresh* id with a
// fresh dense sequence — (subscription id, sequence) pairs never repeat, so
// nothing can be double-applied downstream.
TEST(NetChaosTest, ResubscribeAfterResetNeverRepeatsAnIdSequencePair) {
  sim::Deployment deployment(SmallDeployment());
  (void)deployment.observations();
  VideoZilla system(SmallSystemOptions());
  ServerOptions server_options;
  server_options.idle_poll_ms = 5;
  Server server(&system, server_options);
  ASSERT_TRUE(server.Start().ok());
  ChaosProxyOptions proxy_options;
  proxy_options.upstream_port = server.port();
  proxy_options.idle_poll_ms = 5;
  proxy_options.faults.seed = 77;
  proxy_options.faults.reset_probability = 0.08;
  ChaosProxy proxy(proxy_options);
  ASSERT_TRUE(proxy.Start().ok());

  auto client_or =
      Client::Connect("127.0.0.1", proxy.port(), ChaosClientOptions(77));
  ASSERT_TRUE(client_or.ok());
  Client client = std::move(*client_or);
  for (const auto& info : deployment.cameras()) {
    ASSERT_TRUE(client.CameraStart(info.camera).ok());
  }

  std::mutex mu;
  std::set<std::pair<uint64_t, uint64_t>> seen;  // (subscription id, seq)
  bool duplicate = false;
  SubscribeRequest match_all;
  match_all.query = FeatureVector(std::vector<float>(32, 0.0f));
  match_all.threshold = 1e12;
  auto record = [&](const PushEvent& event) {
    std::lock_guard<std::mutex> lock(mu);
    if (!seen.insert({event.subscription_id, event.sequence}).second) {
      duplicate = true;
    }
  };

  std::set<uint64_t> subscription_ids;
  const auto& observations = deployment.observations();
  const size_t count = std::min<size_t>(60, observations.size());
  size_t next_frame = 0;
  // Interleave ingest with subscribe attempts; resets will kill some
  // subscriptions mid-stream and the re-subscribes must mint fresh ids.
  for (int round = 0; round < 6; ++round) {
    auto sub_id = client.Subscribe(match_all, record);
    if (sub_id.ok()) {
      EXPECT_TRUE(subscription_ids.insert(*sub_id).second)
          << "subscription id " << *sub_id << " reused";
    }
    const size_t until = std::min(count, next_frame + count / 6 + 1);
    for (; next_frame < until; ++next_frame) {
      ASSERT_TRUE(client.IngestFrame(observations[next_frame]).ok())
          << next_frame;
    }
  }
  ASSERT_TRUE(client.Flush().ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_FALSE(duplicate) << "a (subscription, sequence) pair repeated";
  }
  // Exactly-once ingest held throughout the reset storm.
  EXPECT_EQ(system.ingest_stats().frames_offered, count);
  EXPECT_EQ(system.ingest_stats().duplicates_dropped, 0u);

  client.Close();
  proxy.Shutdown();
  server.Shutdown();
}

// --- The wire fault injector itself (pure, no sockets). ---

TEST(WireFaultInjectorTest, SameSeedSameChunksSameFaults) {
  sim::WireFaultInjectorOptions options = DrillFaults(33);
  sim::WireFaultInjector a(options);
  sim::WireFaultInjector b(options);
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    std::string chunk_a(1 + rng.UniformUint64(64), '\x5a');
    std::string chunk_b = chunk_a;
    const auto action_a = a.Apply(&chunk_a);
    const auto action_b = b.Apply(&chunk_b);
    ASSERT_EQ(chunk_a, chunk_b);
    ASSERT_EQ(action_a.delay_ms, action_b.delay_ms);
    ASSERT_EQ(action_a.split_at, action_b.split_at);
    ASSERT_EQ(action_a.blackhole, action_b.blackhole);
    ASSERT_EQ(action_a.reset, action_b.reset);
  }
  const auto& la = a.ledger();
  const auto& lb = b.ledger();
  EXPECT_EQ(la.chunks_clean, lb.chunks_clean);
  EXPECT_EQ(la.delays, lb.delays);
  EXPECT_EQ(la.splits, lb.splits);
  EXPECT_EQ(la.truncations, lb.truncations);
  EXPECT_EQ(la.bitflips, lb.bitflips);
  EXPECT_EQ(la.blackholes, lb.blackholes);
  EXPECT_EQ(la.resets, lb.resets);
}

TEST(WireFaultInjectorTest, FaultsAreMutuallyExclusiveAndLedgerIsExact) {
  sim::WireFaultInjectorOptions options = DrillFaults(12);
  options.blackhole_probability = 0;  // keep the stream rolling
  sim::WireFaultInjector injector(options);
  uint64_t seen = 0;
  for (int i = 0; i < 1'000; ++i) {
    std::string chunk(48, '\x11');
    (void)injector.Apply(&chunk);
    ++seen;
  }
  const auto& ledger = injector.ledger();
  EXPECT_EQ(ledger.chunks_seen, seen);
  // One roll, at most one fault: the categories partition the chunks.
  EXPECT_EQ(ledger.chunks_clean + ledger.delays + ledger.splits +
                ledger.truncations + ledger.bitflips + ledger.blackholes +
                ledger.resets,
            seen);
  EXPECT_GT(ledger.chunks_clean, 0u);
  EXPECT_GT(ledger.splits, 0u);  // 10% over 1000 chunks
}

TEST(WireFaultInjectorTest, BlackholeIsStickyPerDirection) {
  sim::WireFaultInjectorOptions options;
  options.seed = 4;
  options.blackhole_probability = 1.0;
  sim::WireFaultInjector injector(options);
  std::string chunk = "payload";
  EXPECT_TRUE(injector.Apply(&chunk).blackhole);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(injector.Apply(&chunk).blackhole);
  }
  EXPECT_EQ(injector.ledger().blackholes, 1u);  // one fault, then sticky
  EXPECT_EQ(injector.ledger().blackholed_chunks, 5u);

  // A forked child has its own independent state and stream.
  sim::WireFaultInjector child = injector.Fork();
  std::string other = "payload";
  EXPECT_TRUE(child.Apply(&other).blackhole);
  EXPECT_EQ(child.ledger().blackholes, 1u);
}

TEST(WireFaultInjectorTest, TruncationShortensAndResets) {
  sim::WireFaultInjectorOptions options;
  options.seed = 9;
  options.truncate_probability = 1.0;
  sim::WireFaultInjector injector(options);
  bool saw_shorter = false;
  for (int i = 0; i < 50; ++i) {
    std::string chunk(32, '\xab');
    const auto action = injector.Apply(&chunk);
    EXPECT_TRUE(action.reset);
    EXPECT_LT(chunk.size(), 32u);
    if (chunk.size() < 32) saw_shorter = true;
  }
  EXPECT_TRUE(saw_shorter);
  EXPECT_EQ(injector.ledger().truncations, 50u);
}

}  // namespace
}  // namespace vz::net
