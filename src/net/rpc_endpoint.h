#ifndef VZ_NET_RPC_ENDPOINT_H_
#define VZ_NET_RPC_ENDPOINT_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/socket.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "io/binary_format.h"
#include "net/wire.h"

namespace vz::net {

/// Connection handling shared by every serving front end; `ServerOptions`
/// and `CoordinatorOptions` both derive from it. See DESIGN.md, "Exactly-once
/// and connection supervision".
struct EndpointOptions {
  /// Concurrent connections served; arrivals beyond this are answered with a
  /// wire-level `kResourceExhausted` (retry-after attached) and closed —
  /// connection-level shedding mirroring the admission controller's
  /// query-level shedding. Also capped by the worker count of the pool the
  /// endpoint runs on (a connection handler needs a worker for its lifetime).
  size_t max_connections = 8;
  /// Retry-after hint attached to connection-level sheds.
  int64_t shed_retry_after_ms = 50;
  /// Cadence at which idle connection handlers re-check the shutdown flag.
  int64_t idle_poll_ms = 50;
  /// Budget `Shutdown` grants in-flight requests before force-closing the
  /// remaining sockets.
  int64_t drain_timeout_ms = 10'000;
  /// Once the first byte of a request frame is readable, the whole frame
  /// must arrive within this budget; a sender trickling bytes past it is
  /// evicted as a slow client. <= 0 disables the read deadline.
  int64_t read_timeout_ms = 10'000;
  /// A response or push must be accepted by the peer's receive window within
  /// this budget; a reader that stops draining is evicted as a slow client.
  /// <= 0 disables the write deadline.
  int64_t write_timeout_ms = 10'000;
};

/// Lifetime counters of one endpoint (plus the active-connection gauge);
/// `ServerStats` and `CoordinatorStats` extend it.
struct EndpointStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_shed = 0;
  size_t connections_active = 0;
  uint64_t requests_served = 0;
  uint64_t request_errors = 0;
  /// Supervision evictions: no completed request past the idle deadline /
  /// a frame read or write that overran its deadline.
  uint64_t connections_evicted_idle = 0;
  uint64_t connections_evicted_slow = 0;
};

/// What a handler knows about the request it serves.
struct RpcCall {
  /// Endpoint-unique id of the connection the request arrived on — the key
  /// of `PushFrames` and of the close hook.
  uint64_t conn_id = 0;
  /// The request's correlation id (the response echoes it; a `kSubscribe`
  /// handler registers it as its pushes' routing key).
  uint64_t correlation = 0;
};

/// Builds the response payload (a wire status first) for one request whose
/// payload `request` reads. An RPC-level failure is both encoded in the
/// payload and stored in `*failure`; the connection stays open either way.
using RpcHandler = std::function<std::string(
    const RpcCall& call, io::BinaryReader* request, Status* failure)>;

/// Response payload carrying only a wire status.
std::string StatusOnlyResponse(const Status& status,
                               int64_t retry_after_ms = 0);

/// The answer to a request whose (CRC-consistent) payload does not decode:
/// stores `kInvalidArgument` in `*failure` and returns it as a status-only
/// response. The connection stays usable.
std::string MalformedPayload(const Status& decode_error, Status* failure);

/// The one TCP front end of the serving layer. `Server` and `Coordinator`
/// each register a table of per-type handlers; the endpoint owns everything
/// that touches a client socket:
///
/// - the listener and accept loop, and the connection-cap shed (a
///   correlation-0 Hello-typed `kResourceExhausted` with retry-after);
/// - one pool worker per connection for its lifetime, with read/write
///   deadlines, slow-client and (optional) idle eviction, and a registry of
///   per-connection age, traffic and RPC counts;
/// - the Hello gate: an RPC before Hello, or a Hello whose version is not
///   `kProtocolVersion`, is answered (the reply names the server's version)
///   and the connection closed; a response or push frame sent as a request,
///   or a frame that does not decode, closes it too (the latter after a
///   correlation-0 error frame);
/// - per-connection write serialization: responses and pushes share one
///   write lock, and a `closed` flag flipped under it before the socket goes
///   away keeps a push from ever landing on a recycled descriptor.
///
/// `Shutdown` drains (handlers finish the request they are serving, up to
/// `drain_timeout_ms`); `Kill` tears every socket down at once. `Start` may
/// come late — a standby starts its endpoint when promoted.
class RpcEndpoint {
 public:
  /// `pool` hosts the connection handlers and is borrowed; null (or a pool
  /// with fewer than two workers) makes the endpoint own one sized to
  /// `max_connections`. With `idle_evict_ms > 0` a connection that completes
  /// no request for that long is evicted. `on_close` (may be empty) runs once
  /// per connection as it closes, after its last frame was written.
  RpcEndpoint(const EndpointOptions& options, ThreadPool* pool,
              int64_t idle_evict_ms,
              std::function<void(uint64_t conn_id)> on_close);
  ~RpcEndpoint();

  RpcEndpoint(const RpcEndpoint&) = delete;
  RpcEndpoint& operator=(const RpcEndpoint&) = delete;

  /// Registers the handler for requests of `type`; call before `Start`. A
  /// request type without a handler is answered `kUnimplemented`.
  void Handle(MsgType type, RpcHandler handler);

  /// Binds `bind_address:port` (0 = kernel-chosen) and starts accepting.
  Status Start(const std::string& bind_address, uint16_t port);
  /// The bound port (valid after a successful `Start`).
  uint16_t port() const { return port_; }

  /// Graceful stop; idempotent.
  void Shutdown();
  /// Abrupt stop: no drain, in-flight responses are lost.
  void Kill();

  /// Writes push frames to connection `conn_id` if its socket accepts bytes
  /// right now. A zero-timeout writability probe skips a peer whose receive
  /// window is full (backpressure lands on it alone); only then does
  /// `encode` run, and its frames go out in one gathered write under the
  /// connection's write lock. A write that fails closes the connection (one
  /// that overran the write deadline counts as a slow-client eviction).
  /// True when frames were written.
  bool PushFrames(uint64_t conn_id,
                  const std::function<std::vector<std::string>()>& encode);

  EndpointStats stats() const;
  /// Snapshot of the per-connection registry, ordered by connection id.
  std::vector<ConnectionInfo> connection_stats() const;

 private:
  using SteadyClock = std::chrono::steady_clock;

  /// One live connection. Shared between its handler and push writers.
  struct Conn {
    uint64_t id = 0;
    int fd = -1;
    /// Serializes every frame write on the connection. Never held while
    /// blocking on anything but the socket.
    std::mutex write_mu;
    /// Flipped under `write_mu` before the socket closes.
    bool closed = false;
    // Registry fields, guarded by the endpoint's `mu_`.
    SteadyClock::time_point connected_at;
    SteadyClock::time_point last_activity;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    uint64_t rpcs = 0;
  };

  void AcceptLoop();
  void HandleConnection(UniqueFd fd, std::shared_ptr<Conn> conn);
  /// Serves one already-readable request; false when the connection should
  /// close (clean disconnect, torn frame, protocol violation, eviction).
  bool ServeOneRequest(Conn* conn, bool* hello_done);
  /// Runs the handler for `request` (or the Hello gate) and returns the
  /// response payload.
  std::string Dispatch(const WireFrame& request, const RpcCall& call,
                       bool* hello_done, Status* failure);
  void Touch(Conn* conn, uint64_t bytes_in, uint64_t bytes_out,
             bool completed_rpc);
  void Stop(bool drain);
  int64_t WriteTimeout() const;

  const EndpointOptions options_;
  const int64_t idle_evict_ms_;
  const std::function<void(uint64_t)> on_close_;
  std::vector<RpcHandler> handlers_;  // indexed by MsgType value
  ThreadPool* pool_;
  std::unique_ptr<ThreadPool> owned_pool_;
  size_t connection_cap_ = 1;

  UniqueFd listen_fd_;
  uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  bool running_ = false;

  mutable std::mutex mu_;  // guards everything below
  std::condition_variable drained_cv_;
  std::vector<std::future<void>> connection_futures_;
  std::unordered_map<uint64_t, std::shared_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 0;
  uint64_t connections_accepted_ = 0;
  uint64_t connections_shed_ = 0;

  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> request_errors_{0};
  std::atomic<uint64_t> evicted_idle_{0};
  std::atomic<uint64_t> evicted_slow_{0};

  /// Declared after everything the accept loop touches.
  std::thread accept_thread_;
};

}  // namespace vz::net

#endif  // VZ_NET_RPC_ENDPOINT_H_
