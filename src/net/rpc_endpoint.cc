#include "net/rpc_endpoint.h"

#include <algorithm>
#include <sys/socket.h>
#include <utility>

namespace vz::net {

namespace {

int64_t ElapsedMs(const std::chrono::steady_clock::time_point& since,
                  const std::chrono::steady_clock::time_point& now) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(now - since)
      .count();
}

constexpr uint32_t kHelloResponse =
    static_cast<uint32_t>(MsgType::kHello) | kResponseFlag;

}  // namespace

std::string StatusOnlyResponse(const Status& status, int64_t retry_after_ms) {
  io::BinaryWriter writer;
  EncodeWireStatus(&writer, {status, retry_after_ms});
  return writer.buffer();
}

std::string MalformedPayload(const Status& decode_error, Status* failure) {
  *failure =
      Status::InvalidArgument("malformed payload: " + decode_error.message());
  return StatusOnlyResponse(*failure);
}

RpcEndpoint::RpcEndpoint(const EndpointOptions& options, ThreadPool* pool,
                         int64_t idle_evict_ms,
                         std::function<void(uint64_t conn_id)> on_close)
    : options_(options),
      idle_evict_ms_(idle_evict_ms),
      on_close_(std::move(on_close)),
      pool_(pool) {}

RpcEndpoint::~RpcEndpoint() { Kill(); }

void RpcEndpoint::Handle(MsgType type, RpcHandler handler) {
  const size_t index = static_cast<size_t>(type);
  if (handlers_.size() <= index) handlers_.resize(index + 1);
  handlers_[index] = std::move(handler);
}

int64_t RpcEndpoint::WriteTimeout() const {
  return options_.write_timeout_ms > 0 ? options_.write_timeout_ms : -1;
}

Status RpcEndpoint::Start(const std::string& bind_address, uint16_t port) {
  if (running_) return Status::FailedPrecondition("endpoint already started");
  // Connection handlers hold a pool worker for the whole connection, so the
  // pool must actually have workers to spare.
  if (pool_ == nullptr || pool_->num_threads() < 2) {
    if (owned_pool_ == nullptr) {
      owned_pool_ = std::make_unique<ThreadPool>(options_.max_connections + 1);
    }
    pool_ = owned_pool_.get();
  }
  connection_cap_ = std::max<size_t>(
      1, std::min(options_.max_connections, pool_->num_threads() - 1));
  VZ_ASSIGN_OR_RETURN(listen_fd_, TcpListen(bind_address, port));
  VZ_ASSIGN_OR_RETURN(port_, LocalPort(listen_fd_.get()));
  stopping_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  running_ = true;
  return Status::OK();
}

void RpcEndpoint::Shutdown() { Stop(/*drain=*/true); }

void RpcEndpoint::Kill() { Stop(/*drain=*/false); }

void RpcEndpoint::Stop(bool drain) {
  if (!running_) return;
  stopping_.store(true);
  // Wake the blocking accept; close happens after the thread exits so the
  // descriptor cannot be reused mid-accept.
  ::shutdown(listen_fd_.get(), SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_.Reset();

  // Drain: handlers notice `stopping_` at their next idle poll and finish
  // the request they are serving first. Without a drain (or past its
  // budget) sockets are torn down under the handlers, so in-flight requests
  // die with unsent responses — the ambiguity idempotency tokens exist for.
  std::vector<std::future<void>> futures;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const bool drained =
        drain && drained_cv_.wait_for(
                     lock, std::chrono::milliseconds(options_.drain_timeout_ms),
                     [this] { return conns_.empty(); });
    if (!drained) {
      for (const auto& [id, conn] : conns_) ::shutdown(conn->fd, SHUT_RDWR);
    }
    futures.swap(connection_futures_);
  }
  for (std::future<void>& f : futures) {
    if (f.valid()) f.wait();
  }
  running_ = false;
}

EndpointStats RpcEndpoint::stats() const {
  EndpointStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.connections_accepted = connections_accepted_;
    stats.connections_shed = connections_shed_;
    stats.connections_active = conns_.size();
  }
  stats.requests_served = requests_served_.load();
  stats.request_errors = request_errors_.load();
  stats.connections_evicted_idle = evicted_idle_.load();
  stats.connections_evicted_slow = evicted_slow_.load();
  return stats;
}

std::vector<ConnectionInfo> RpcEndpoint::connection_stats() const {
  const auto now = SteadyClock::now();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<ConnectionInfo> infos;
  infos.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) {
    ConnectionInfo info;
    info.id = id;
    info.age_ms = ElapsedMs(conn->connected_at, now);
    info.idle_ms = ElapsedMs(conn->last_activity, now);
    info.bytes_in = conn->bytes_in;
    info.bytes_out = conn->bytes_out;
    info.rpcs = conn->rpcs;
    infos.push_back(info);
  }
  std::sort(infos.begin(), infos.end(),
            [](const ConnectionInfo& a, const ConnectionInfo& b) {
              return a.id < b.id;
            });
  return infos;
}

void RpcEndpoint::AcceptLoop() {
  while (!stopping_.load()) {
    auto accepted = TcpAccept(listen_fd_.get());
    if (!accepted.ok()) {
      if (stopping_.load()) return;
      continue;  // transient accept failure (e.g. EMFILE burst)
    }
    UniqueFd fd = std::move(*accepted);
    (void)SetTcpNoDelay(fd.get());

    std::lock_guard<std::mutex> lock(mu_);
    ++connections_accepted_;
    if (stopping_.load() || conns_.size() >= connection_cap_) {
      // Connection-level shedding: answer with the same wire status an
      // admission shed produces, so one client backoff path covers both.
      ++connections_shed_;
      const Status shed = Status::ResourceExhausted(
          "at connection capacity (" + std::to_string(connection_cap_) +
          "); retry later");
      (void)WriteFrame(fd.get(), kHelloResponse, 0,
                       StatusOnlyResponse(shed, options_.shed_retry_after_ms),
                       WriteTimeout());
      continue;  // fd closes on scope exit
    }
    auto conn = std::make_shared<Conn>();
    conn->id = ++next_conn_id_;
    conn->fd = fd.get();
    conn->connected_at = SteadyClock::now();
    conn->last_activity = conn->connected_at;
    conns_.emplace(conn->id, conn);
    // Completed connections leave stale ready futures behind; reap them
    // while we hold the lock anyway.
    std::erase_if(connection_futures_, [](std::future<void>& f) {
      return !f.valid() ||
             f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    });
    connection_futures_.push_back(
        pool_->Submit([this, raw = fd.Release(), conn]() mutable {
          HandleConnection(UniqueFd(raw), std::move(conn));
        }));
  }
}

void RpcEndpoint::HandleConnection(UniqueFd fd, std::shared_ptr<Conn> conn) {
  bool hello_done = false;
  // The idle clock: any completed request (including kPing) resets it.
  auto last_activity = SteadyClock::now();
  while (!stopping_.load()) {
    auto readable = WaitReadable(fd.get(), options_.idle_poll_ms);
    if (!readable.ok()) break;
    if (!*readable) {
      if (idle_evict_ms_ > 0 &&
          ElapsedMs(last_activity, SteadyClock::now()) > idle_evict_ms_) {
        evicted_idle_.fetch_add(1);
        break;
      }
      continue;  // idle; re-check the stop flag
    }
    if (!ServeOneRequest(conn.get(), &hello_done)) break;
    last_activity = SteadyClock::now();
  }
  // `closed` flips under the write lock BEFORE the socket closes, and every
  // push re-checks it under the same lock: no push can land on a recycled
  // fd number.
  {
    std::lock_guard<std::mutex> write_lock(conn->write_mu);
    conn->closed = true;
  }
  if (on_close_) on_close_(conn->id);
  std::lock_guard<std::mutex> lock(mu_);
  conns_.erase(conn->id);
  if (conns_.empty()) drained_cv_.notify_all();
}

bool RpcEndpoint::ServeOneRequest(Conn* conn, bool* hello_done) {
  auto write = [&](uint32_t type, uint64_t correlation,
                   const std::string& payload) {
    std::lock_guard<std::mutex> write_lock(conn->write_mu);
    return WriteFrame(conn->fd, type, correlation, payload, WriteTimeout());
  };

  // The caller saw the first byte, so the whole frame now has to arrive
  // within the read deadline — a sender trickling bytes is a slow client.
  auto request = ReadFrame(
      conn->fd, options_.read_timeout_ms > 0 ? options_.read_timeout_ms : -1);
  if (!request.ok()) {
    const Status& status = request.status();
    if (status.code() == StatusCode::kUnavailable) {
      evicted_slow_.fetch_add(1);
      return false;  // no response: the peer is not keeping up anyway
    }
    // Clean disconnect between frames is the normal end of a connection;
    // everything else (torn frame, checksum mismatch, unknown type) gets a
    // best-effort error before the close. The request's correlation never
    // arrived intact, so the error rides correlation 0 — connection-fatal
    // for the client.
    if (status.code() != StatusCode::kNotFound) {
      request_errors_.fetch_add(1);
      (void)write(kHelloResponse, 0, StatusOnlyResponse(status));
    }
    return false;
  }
  if ((request->type & kResponseFlag) != 0 ||
      request->type == static_cast<uint32_t>(MsgType::kPushEvent)) {
    request_errors_.fetch_add(1);
    (void)write(request->type | kResponseFlag, request->correlation,
                StatusOnlyResponse(Status::InvalidArgument(
                    "response or push frame sent as request")));
    return false;
  }

  Status failure;
  const std::string response = Dispatch(
      *request, {conn->id, request->correlation}, hello_done, &failure);
  (failure.ok() ? requests_served_ : request_errors_).fetch_add(1);
  Touch(conn, WireFrameBytes(request->payload.size()),
        WireFrameBytes(response.size()), failure.ok());
  if (Status s = write(request->type | kResponseFlag, request->correlation,
                       response);
      !s.ok()) {
    // A reader that stopped draining its responses is as stuck as a writer
    // that stopped sending.
    if (s.code() == StatusCode::kUnavailable) evicted_slow_.fetch_add(1);
    return false;
  }
  // An RPC before Hello, or a refused Hello, closes the connection after its
  // reply; RPC-level failures (unknown camera, shed query) keep it open.
  return *hello_done;
}

std::string RpcEndpoint::Dispatch(const WireFrame& request,
                                  const RpcCall& call, bool* hello_done,
                                  Status* failure) {
  io::BinaryReader reader(request.payload);
  if (request.type == static_cast<uint32_t>(MsgType::kHello)) {
    auto version = reader.ReadU32();
    if (!version.ok()) {
      *failure = Status::InvalidArgument("malformed payload: " +
                                         version.status().message());
    } else if (*version != kProtocolVersion) {
      *failure = Status::FailedPrecondition(
          "protocol version mismatch: client speaks v" +
          std::to_string(*version) + ", server speaks v" +
          std::to_string(kProtocolVersion));
    } else {
      *hello_done = true;
    }
    // The reply always names the server's version, refusals included.
    io::BinaryWriter writer;
    EncodeWireStatus(&writer, {*failure, 0});
    writer.WriteU32(kProtocolVersion);
    return writer.buffer();
  }
  if (!*hello_done) {
    *failure = Status::FailedPrecondition("first message must be Hello");
    return StatusOnlyResponse(*failure);
  }
  if (request.type < handlers_.size() && handlers_[request.type]) {
    return handlers_[request.type](call, &reader, failure);
  }
  *failure = Status::Unimplemented("unhandled message type " +
                                   std::to_string(request.type));
  return StatusOnlyResponse(*failure);
}

bool RpcEndpoint::PushFrames(
    uint64_t conn_id,
    const std::function<std::vector<std::string>()>& encode) {
  std::shared_ptr<Conn> conn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(conn_id);
    if (it != conns_.end()) conn = it->second;
  }
  // A vanished connection is mid-teardown; its close hook reclaims whatever
  // was queued for it.
  if (conn == nullptr) return false;
  auto writable = WaitWritable(conn->fd, 0);
  if (!writable.ok() || !*writable) return false;
  const std::vector<std::string> frames = encode();
  if (frames.empty()) return false;
  Status written;
  {
    std::lock_guard<std::mutex> write_lock(conn->write_mu);
    if (conn->closed) return false;  // the frames die with the connection
    // The probe said writable, so this write normally completes without
    // blocking; a peer that stalls mid-frame still runs into the write
    // deadline and is evicted — never a torn frame.
    written = WriteEncodedFrames(conn->fd, frames, WriteTimeout());
    if (!written.ok()) ::shutdown(conn->fd, SHUT_RDWR);
  }
  if (!written.ok()) {
    if (written.code() == StatusCode::kUnavailable) evicted_slow_.fetch_add(1);
    return false;  // the handler notices the shutdown and tears down
  }
  uint64_t bytes_out = 0;
  for (const std::string& frame : frames) bytes_out += frame.size();
  Touch(conn.get(), 0, bytes_out, /*completed_rpc=*/false);
  return true;
}

void RpcEndpoint::Touch(Conn* conn, uint64_t bytes_in, uint64_t bytes_out,
                        bool completed_rpc) {
  std::lock_guard<std::mutex> lock(mu_);
  conn->last_activity = SteadyClock::now();
  conn->bytes_in += bytes_in;
  conn->bytes_out += bytes_out;
  if (completed_rpc) ++conn->rpcs;
}

}  // namespace vz::net
