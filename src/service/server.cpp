#include "service/server.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace mtperf::service {

/// One accepted client.  The reader thread owns the receive side; result
/// writes come from batcher threads, so the send side is serialized by
/// write_mutex.  in_flight counts requests admitted to the pipeline but
/// not yet answered — the per-connection admission cap.
struct Server::Connection {
  explicit Connection(Socket s) : sock(std::move(s)) {}
  Socket sock;
  std::mutex write_mutex;
  std::atomic<std::size_t> in_flight{0};
  /// Set on the first failed send: the peer hung up mid-response.  Later
  /// responses for this connection are dropped instead of written into a
  /// dead socket.
  std::atomic<bool> failed{false};
};

/// One admitted request waiting in the submission queue.
struct Server::Pending {
  std::shared_ptr<Connection> conn;
  core::ScenarioSpec spec;
  Fingerprint fp;  ///< computed once, by the reader that probed the cache
  bool series = false;
  Json id;
};

/// One connection's responses within a flush.  Each batcher keeps its
/// buffers across flushes, so steady-state flushes write into strings
/// that have already grown to size.
struct Server::ConnectionBuffer {
  Connection* conn = nullptr;
  std::string bytes;
  std::uint64_t lines = 0;
};

namespace {

/// A buffer that grew past this (a very deep series answer) gives its
/// memory back instead of holding it for the server's lifetime.
constexpr std::size_t kMaxRetainedResponseBytes = std::size_t{4} << 20;

void release_if_oversized(std::string& buffer) {
  if (buffer.capacity() > kMaxRetainedResponseBytes) {
    std::string().swap(buffer);
  }
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  MTPERF_REQUIRE(options_.max_batch >= 1, "server needs max_batch >= 1");
  MTPERF_REQUIRE(options_.queue_capacity >= 1,
                 "server needs queue_capacity >= 1");
  MTPERF_REQUIRE(options_.max_inflight_per_conn >= 1,
                 "server needs max_inflight_per_conn >= 1");
  engine_ = std::make_unique<Engine>(options_.engine);
  queue_ = std::make_unique<BoundedQueue<Pending>>(options_.queue_capacity);
}

Server::~Server() { stop(); }

void Server::start() {
  MTPERF_REQUIRE(!started_.exchange(true), "server already started");
  // A client that disconnects while a batcher is mid-flush must cost one
  // dropped connection, not the process.
  ignore_sigpipe();
  listener_ = ListenSocket::listen_tcp(options_.port);
  const std::size_t batchers = std::max<std::size_t>(1, options_.batchers);
  batcher_threads_.reserve(batchers);
  for (std::size_t i = 0; i < batchers; ++i) {
    batcher_threads_.emplace_back([this] { batcher_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

std::uint16_t Server::port() const { return listener_.port(); }

void Server::wait() {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  shutdown_cv_.wait(lock, [this] {
    return shutdown_requested_.load() || stopping_.load();
  });
}

void Server::stop() {
  if (!started_.load() || stopping_.exchange(true)) {
    shutdown_cv_.notify_all();
    return;
  }
  shutdown_cv_.notify_all();

  // Stop taking new connections, then new requests; drain what was
  // admitted (batchers answer every queued Pending before exiting); only
  // then tear down the connections the drain was writing to.
  listener_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  queue_->close();
  for (std::thread& t : batcher_threads_) {
    if (t.joinable()) t.join();
  }
  {
    std::lock_guard<std::mutex> lock(readers_mutex_);
    for (const Reader& r : readers_) {
      if (r.conn != nullptr) r.conn->sock.shutdown();
    }
  }
  // The accept thread is gone, so the list no longer changes shape;
  // exiting readers only touch their own node's conn and done, under the
  // lock, which must therefore not be held while joining.
  for (Reader& r : readers_) {
    if (r.thread.joinable()) r.thread.join();
  }
  listener_.close();
  std::lock_guard<std::mutex> lock(readers_mutex_);
  readers_.clear();
}

void Server::reap_readers() {
  for (auto it = readers_.begin(); it != readers_.end();) {
    if (!it->done) {
      ++it;
      continue;
    }
    it->thread.join();  // already past its last statement
    it = readers_.erase(it);
  }
}

void Server::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    Socket sock = listener_.accept_conn();
    if (!sock.valid()) break;  // listener shut down
    auto conn = std::make_shared<Connection>(std::move(sock));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(readers_mutex_);
    if (stopping_.load()) {
      conn->sock.close();
      break;
    }
    // Finished connections give their threads back here, so a server
    // taking many short connections holds threads only for live ones.
    reap_readers();
    Reader& reader = readers_.emplace_back();
    reader.conn = conn;
    reader.thread = std::thread(
        [this, conn = std::move(conn), self = &reader]() mutable {
          reader_loop(std::move(conn), self);
        });
  }
}

void Server::respond(Connection& conn, std::string_view data,
                     std::uint64_t lines) {
  std::lock_guard<std::mutex> lock(conn.write_mutex);
  if (conn.failed.load(std::memory_order_relaxed)) return;
  if (conn.sock.send_all(data)) {
    responses_.fetch_add(lines, std::memory_order_relaxed);
    return;
  }
  // Peer hung up mid-response: stop writing and wake the connection's
  // reader thread (blocked in recv) so the drop completes cleanly while
  // the rest of the batch keeps flushing to live connections.
  conn.failed.store(true, std::memory_order_relaxed);
  conn.sock.shutdown();
  send_failures_.fetch_add(1, std::memory_order_relaxed);
}

void Server::reader_loop(std::shared_ptr<Connection> conn, Reader* self) {
  LineReader reader(conn->sock, kMaxRequestLineBytes);
  RequestMemo memo(options_.engine.cache_capacity);
  std::string line;
  std::string out;  // reused response buffer; respond() copies nothing
  Json id;
  while (reader.next_line(line)) {
    if (reader.too_long()) {
      parse_errors_.fetch_add(1, std::memory_order_relaxed);
      out.clear();
      append_error(out, std::string(Error::prefix()) + "request line too long",
                   Json());
      respond(*conn, out);
      continue;
    }
    if (line.empty()) continue;
    // A line seen before, but for its id, skips the parse: its
    // fingerprint, depth and label come from the memo.  A cache miss
    // falls through to the full parse, which admits it as usual.
    if (const RequestMemo::Entry* seen = memo.find(line, id)) {
      std::optional<Evaluation> hit;
      try {
        hit = engine_->probe(seen->fp, seen->depth, seen->label);
      } catch (const std::exception&) {
        // The full parse below meets the same failure and answers it.
      }
      if (hit) {
        requests_.fetch_add(1, std::memory_order_relaxed);
        reader_hits_.fetch_add(1, std::memory_order_relaxed);
        memo_hits_.fetch_add(1, std::memory_order_relaxed);
        out.clear();
        append_evaluation(out, *hit, seen->series, id);
        respond(*conn, out);
        release_if_oversized(out);
        continue;
      }
    }
    ParsedRequest request;
    try {
      request = parse_request(line);
    } catch (const std::exception& e) {
      parse_errors_.fetch_add(1, std::memory_order_relaxed);
      out.clear();
      append_error(out, e.what(), recover_request_id(line));
      respond(*conn, out);
      continue;
    }
    switch (request.kind) {
      case RequestKind::kMetrics: {
        const Json server = server_metrics_json();
        out.clear();
        append_metrics(out, engine_->metrics(), &server, request.id);
        respond(*conn, out);
        break;
      }
      case RequestKind::kShutdown: {
        out.clear();
        Json::Object ack;
        if (!request.id.is_null()) ack["id"] = request.id;
        ack["shutdown"] = true;
        Json(std::move(ack)).dump_to(out);
        out.push_back('\n');
        respond(*conn, out);
        shutdown_requested_.store(true);
        shutdown_cv_.notify_all();
        break;
      }
      case RequestKind::kScenario: {
        requests_.fetch_add(1, std::memory_order_relaxed);
        // Cache hits are answered here and never queue, so they cannot
        // wait behind cold solves.  The fingerprint is computed once and
        // rides with a miss to the batcher.
        Fingerprint fp;
        std::optional<Evaluation> hit;
        try {
          fp = fingerprint(request.spec);
          hit = engine_->probe(fp, request.spec.options.max_population,
                               request.spec.label);
        } catch (const std::exception& e) {
          out.clear();
          append_error(out, e.what(), request.id);
          respond(*conn, out);
          break;
        }
        memo.remember({fp, request.spec.options.max_population,
                       request.series, request.spec.label});
        if (hit) {
          reader_hits_.fetch_add(1, std::memory_order_relaxed);
          out.clear();
          append_evaluation(out, *hit, request.series, request.id);
          respond(*conn, out);
          release_if_oversized(out);
          break;
        }
        // A miss goes through admission control: cap this connection's
        // unanswered requests, then try the bounded queue.  Either failure
        // is a fast rejection — the request never reaches the engine.
        if (conn->in_flight.load(std::memory_order_relaxed) >=
            options_.max_inflight_per_conn) {
          rejected_inflight_.fetch_add(1, std::memory_order_relaxed);
          out.clear();
          append_error(out, "overloaded", request.id);
          respond(*conn, out);
          break;
        }
        conn->in_flight.fetch_add(1, std::memory_order_relaxed);
        Pending pending{conn, std::move(request.spec), fp, request.series,
                        std::move(request.id)};
        if (!queue_->try_push(std::move(pending))) {
          conn->in_flight.fetch_sub(1, std::memory_order_relaxed);
          rejected_overloaded_.fetch_add(1, std::memory_order_relaxed);
          out.clear();
          append_error(out, "overloaded", pending.id);
          respond(*conn, out);
          break;
        }
        accepted_.fetch_add(1, std::memory_order_relaxed);
        const std::size_t depth = queue_->size();
        std::size_t peak = queue_peak_.load(std::memory_order_relaxed);
        while (depth > peak &&
               !queue_peak_.compare_exchange_weak(
                   peak, depth, std::memory_order_relaxed)) {
        }
        break;
      }
    }
  }
  // Receive side is done; in-flight responses still write through the
  // Connection shared_ptr held by their Pendings, and the socket closes
  // with the last of them.
  std::lock_guard<std::mutex> lock(readers_mutex_);
  self->conn.reset();
  self->done = true;
}

void Server::batcher_loop() {
  std::vector<Pending> batch;
  batch.reserve(options_.max_batch);
  std::vector<ConnectionBuffer> buffers;
  Pending first;
  while (queue_->pop(first)) {
    batch.clear();
    batch.push_back(std::move(first));
    // Size-or-deadline trigger: keep gathering until the batch is full or
    // the first request of this batch has waited out the deadline.
    const auto deadline =
        std::chrono::steady_clock::now() + options_.batch_deadline;
    while (batch.size() < options_.max_batch) {
      Pending next;
      if (!queue_->pop_until(next, deadline)) break;
      batch.push_back(std::move(next));
    }
    if (batch.size() >= options_.max_batch) {
      flush_by_size_.fetch_add(1, std::memory_order_relaxed);
    } else {
      flush_by_deadline_.fetch_add(1, std::memory_order_relaxed);
    }
    flush_batch(batch, buffers);
    batch.clear();  // drop the connections' references until the next pop
  }
}

void Server::flush_batch(std::vector<Pending>& batch,
                         std::vector<ConnectionBuffer>& buffers) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  std::vector<core::ScenarioSpec> specs;
  std::vector<Fingerprint> fps;
  specs.reserve(batch.size());
  fps.reserve(batch.size());
  for (Pending& p : batch) {
    specs.push_back(std::move(p.spec));
    fps.push_back(p.fp);
  }

  std::vector<Evaluation> evaluations;
  try {
    evaluations = engine_->evaluate_batch(specs, fps);
  } catch (const std::exception& e) {
    // The engine settles per-spec failures internally; reaching here means
    // the whole batch failed.  Answer every request so no client hangs.
    std::string out;
    for (Pending& p : batch) {
      out.clear();
      append_error(out, e.what(), p.id);
      respond(*p.conn, out);
      p.conn->in_flight.fetch_sub(1, std::memory_order_relaxed);
    }
    return;
  }
  // Group the batch's responses by connection: one buffered send per
  // connection per flush instead of one write syscall per request.
  // buffers[0, used) hold this flush; the rest keep their capacity.
  std::size_t used = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Pending& p = batch[i];
    Connection* c = p.conn.get();
    auto buf = std::find_if(buffers.begin(), buffers.begin() + used,
                            [c](const auto& b) { return b.conn == c; });
    if (buf == buffers.begin() + used) {
      if (used == buffers.size()) buffers.emplace_back();
      buf = buffers.begin() + used++;
      buf->conn = c;
      buf->bytes.clear();
      buf->lines = 0;
    }
    append_evaluation(buf->bytes, evaluations[i], p.series, p.id);
    ++buf->lines;
  }
  for (std::size_t b = 0; b < used; ++b) {
    respond(*buffers[b].conn, buffers[b].bytes, buffers[b].lines);
    release_if_oversized(buffers[b].bytes);
  }
  for (Pending& p : batch) {
    p.conn->in_flight.fetch_sub(1, std::memory_order_relaxed);
  }
}

ServerMetrics Server::metrics() const {
  ServerMetrics m;
  m.connections = connections_accepted_.load(std::memory_order_relaxed);
  m.requests = requests_.load(std::memory_order_relaxed);
  m.reader_hits = reader_hits_.load(std::memory_order_relaxed);
  m.memo_hits = memo_hits_.load(std::memory_order_relaxed);
  m.accepted = accepted_.load(std::memory_order_relaxed);
  m.rejected_overloaded =
      rejected_overloaded_.load(std::memory_order_relaxed);
  m.rejected_inflight = rejected_inflight_.load(std::memory_order_relaxed);
  m.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  m.responses = responses_.load(std::memory_order_relaxed);
  m.send_failures = send_failures_.load(std::memory_order_relaxed);
  m.batches = batches_.load(std::memory_order_relaxed);
  m.flush_by_size = flush_by_size_.load(std::memory_order_relaxed);
  m.flush_by_deadline = flush_by_deadline_.load(std::memory_order_relaxed);
  m.queue_peak = queue_peak_.load(std::memory_order_relaxed);
  return m;
}

Json Server::server_metrics_json() const {
  const ServerMetrics m = metrics();
  Json::Object server;
  server["connections"] = static_cast<unsigned long long>(m.connections);
  server["requests"] = static_cast<unsigned long long>(m.requests);
  server["reader_hits"] = static_cast<unsigned long long>(m.reader_hits);
  server["memo_hits"] = static_cast<unsigned long long>(m.memo_hits);
  server["accepted"] = static_cast<unsigned long long>(m.accepted);
  server["rejected_overloaded"] =
      static_cast<unsigned long long>(m.rejected_overloaded);
  server["rejected_inflight"] =
      static_cast<unsigned long long>(m.rejected_inflight);
  server["parse_errors"] = static_cast<unsigned long long>(m.parse_errors);
  server["responses"] = static_cast<unsigned long long>(m.responses);
  server["send_failures"] = static_cast<unsigned long long>(m.send_failures);
  server["batches"] = static_cast<unsigned long long>(m.batches);
  server["flush_by_size"] = static_cast<unsigned long long>(m.flush_by_size);
  server["flush_by_deadline"] =
      static_cast<unsigned long long>(m.flush_by_deadline);
  server["queue_peak"] = static_cast<unsigned long long>(m.queue_peak);
  server["queue_depth"] = static_cast<unsigned long long>(queue_->size());
  server["queue_capacity"] =
      static_cast<unsigned long long>(queue_->capacity());
  server["max_batch"] = static_cast<unsigned long long>(options_.max_batch);
  return Json(std::move(server));
}

}  // namespace mtperf::service
