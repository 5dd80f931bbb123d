// The socket transport of mtperf_serve: a micro-batching TCP front end
// over service::Engine, shaped like an inference-serving pipeline —
//
//   accept loop ──> per-connection reader threads:
//                   request-line memo ─ seen ─> Engine::probe
//                     └─ unseen, or a cache miss ─> parse, fingerprint,
//                                                   Engine::probe
//                   ├─ hit ──> answered and written by the reader
//                   └─ miss ─> bounded submission queue ──> micro-batcher
//                              ──> Engine::evaluate_batch
//                              ──> per-connection grouped writes
//
// Readers split their connection into lines (at most
// kMaxRequestLineBytes each) and look each one up in their RequestMemo
// (service/request.hpp): a line repeated but for its "id" whose entry is
// still cached is answered without a parse.  Other lines are parsed, each
// scenario fingerprinted once, and the cache probed.
// An exact or prefix hit is serialized and written by the reader itself,
// so hits never wait behind cold solves, a flush deadline, or the
// batcher's serialization of other answers — the three-tier-with-cache
// lesson: hits shield the downstream queues.  Only misses are pushed,
// with their fingerprint, into a bounded MPMC queue.  The batcher drains
// the queue under a size-or-deadline trigger — flush when kMaxBatch
// requests are pending or the oldest has waited batch_deadline — and
// hands each batch to Engine::evaluate_batch, where fingerprint dedup,
// single-flight coalescing, and the lane-major lockstep kernel turn the
// batch into as few full 16-lane solves as possible.
//
// Admission control keeps the pipeline's latency bounded instead of its
// queue unbounded (the Zero-Queueing design point: shed, don't queue):
//
//   * the submission queue is bounded — when it is full the reader answers
//     {"error":"overloaded"} immediately, without parsing a spec into the
//     pipeline;
//   * each connection has an in-flight cap on admitted misses, so one
//     client cannot occupy the whole queue (hits, answered on the spot,
//     are not capped);
//   * responses carry the request's "id", because hits overtake queued
//     misses and micro-batching across connections reorders completions.
//
// Every write is a blocking send under the connection's write mutex.  A
// client that pipelines requests without reading its answers therefore
// stalls its own reader once the socket buffers fill — TCP backpressure on
// that one connection; a client that pipelines more than the buffers hold
// must read concurrently.
//
// Metrics ({"cmd":"metrics"}) answer from the reader thread without
// touching the batch path — the engine's counters are lock-free to read.
//
// A finished reader releases its connection and is joined by the accept
// loop at the next accept, so closed connections hold neither an fd nor a
// thread; misses still queued keep their connection alive until answered.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/mpmc_queue.hpp"
#include "common/socket.hpp"
#include "service/engine.hpp"
#include "service/request.hpp"

namespace mtperf::service {

/// Longest request line a reader accepts (4 MiB, some thousands of times
/// the protocol's largest committed request).  A longer line is answered
/// with {"error":"mtperf: request line too long"} and discarded through
/// its newline; the connection keeps serving.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{4} << 20;

struct ServerOptions {
  /// TCP port (loopback); 0 lets the kernel pick — read back via port().
  std::uint16_t port = 0;
  /// Flush a batch as soon as it holds this many requests...
  std::size_t max_batch = 64;
  /// ...or as soon as the oldest pending request has waited this long.
  std::chrono::microseconds batch_deadline{2000};
  /// Bounded submission queue; a full queue fast-rejects ("overloaded").
  std::size_t queue_capacity = 1024;
  /// Per-connection in-flight cap (admitted but unanswered misses).
  std::size_t max_inflight_per_conn = 256;
  /// Concurrent micro-batcher threads draining the queue.
  std::size_t batchers = 1;
  EngineOptions engine;
};

/// Transport-level counters (relaxed atomics; snapshot via metrics_json).
struct ServerMetrics {
  std::uint64_t connections = 0;  ///< accepted so far
  std::uint64_t requests = 0;     ///< parsed scenario requests
  std::uint64_t reader_hits = 0;  ///< cache hits answered before admission
  /// Reader hits of memoized lines, answered without a parse.
  std::uint64_t memo_hits = 0;
  std::uint64_t accepted = 0;     ///< misses admitted to the queue
  std::uint64_t rejected_overloaded = 0;  ///< shed: queue full
  std::uint64_t rejected_inflight = 0;    ///< shed: per-conn cap
  std::uint64_t parse_errors = 0;
  std::uint64_t responses = 0;  ///< result lines written
  std::uint64_t send_failures = 0;  ///< writes into a hung-up connection
  std::uint64_t batches = 0;    ///< evaluate_batch flushes
  std::uint64_t flush_by_size = 0;
  std::uint64_t flush_by_deadline = 0;
  std::size_t queue_peak = 0;  ///< deepest submission queue observed
};

class Server final {
 public:
  explicit Server(ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and spawn the accept/batcher threads.
  void start();

  /// The bound port (valid after start()).
  std::uint16_t port() const;

  /// Block until a client sends {"cmd":"shutdown"} or stop() is called.
  void wait();

  /// Close the listener and every connection, drain accepted work, join
  /// all threads.  Idempotent.
  void stop();

  Engine& engine() noexcept { return *engine_; }
  ServerMetrics metrics() const;

  /// The {"metrics":...,"server":...} line both transports emit.
  Json server_metrics_json() const;

 private:
  struct Connection;
  struct Pending;
  struct ConnectionBuffer;

  /// One connection's reader thread.  The reader drops `conn` and sets
  /// `done` as it exits; the accept loop joins and erases done readers.
  struct Reader {
    Reader() = default;
    Reader(const Reader&) = delete;  // its thread holds its address
    Reader& operator=(const Reader&) = delete;

    std::shared_ptr<Connection> conn;
    std::thread thread;
    bool done = false;
  };

  void accept_loop();
  /// Join and erase every reader that has finished (readers_mutex_ held).
  void reap_readers();
  void reader_loop(std::shared_ptr<Connection> conn, Reader* self);
  void batcher_loop();
  void flush_batch(std::vector<Pending>& batch,
                   std::vector<ConnectionBuffer>& buffers);
  void respond(Connection& conn, std::string_view data,
               std::uint64_t lines = 1);

  ServerOptions options_;
  std::unique_ptr<Engine> engine_;
  std::unique_ptr<BoundedQueue<Pending>> queue_;
  ListenSocket listener_;

  std::thread accept_thread_;
  std::vector<std::thread> batcher_threads_;
  std::mutex readers_mutex_;
  std::list<Reader> readers_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> reader_hits_{0};
  std::atomic<std::uint64_t> memo_hits_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_overloaded_{0};
  std::atomic<std::uint64_t> rejected_inflight_{0};
  std::atomic<std::uint64_t> parse_errors_{0};
  std::atomic<std::uint64_t> responses_{0};
  std::atomic<std::uint64_t> send_failures_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> flush_by_size_{0};
  std::atomic<std::uint64_t> flush_by_deadline_{0};
  std::atomic<std::size_t> queue_peak_{0};
};

}  // namespace mtperf::service
