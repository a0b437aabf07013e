// pac_serve core: a long-lived classification server.
//
// Threading model (DESIGN.md §7):
//   - one accept thread hands each connection to a reader thread; a reader
//     marks its connection finished as its last act, and the accept thread
//     joins and drops finished connections before it adds a new one and
//     after a failed accept (the fd closes with the last shared_ptr, which
//     a queued request may hold);
//   - readers decode + admission-validate requests and enqueue them
//     (malformed requests fail individually, before batching);
//   - ONE batch worker owns the metrics Registry and the inference hot
//     path: it gathers queued predict requests into micro-batches
//     (max_batch_rows rows or max_delay_ms from the first enqueue,
//     whichever comes first), runs one Model::rebound + fill_log_joint
//     pass per micro-batch, and splits the results back per request;
//   - an optional watcher thread polls the checkpoint path and hot-swaps
//     the model.
//
// Hot reload is an RCU-style pointer flip: the current model lives in a
// shared_ptr<const Snapshot>; publish() swaps the pointer under a mutex
// while in-flight batches keep evaluating the snapshot they grabbed at
// batch start.  No reader/worker ever blocks on a reload, and every
// response is stamped with the generation that produced it.
//
// Backpressure: total queued rows are capped (max_queue_rows); past the
// cap a predict request is rejected immediately with a "server busy"
// error instead of growing the queue without bound.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "autoclass/classification.hpp"
#include "mp/transport/frame.hpp"
#include "serve/predictor.hpp"
#include "serve/protocol.hpp"
#include "util/metrics.hpp"

namespace pac::serve {

struct ServerOptions {
  /// Listen address ("host:port", port 0 = ephemeral, or "unix:/path").
  std::string address = "127.0.0.1:0";
  /// Micro-batch row cap: the worker stops gathering once this many rows
  /// are in hand.
  std::size_t max_batch_rows = 256;
  /// Micro-batch gather window in milliseconds, measured from the first
  /// queued request of the batch.
  double max_delay_ms = 1.0;
  /// Admission cap on queued-but-unserved rows; beyond it predict
  /// requests are rejected with a busy error.
  std::size_t max_queue_rows = 16384;
  /// Checkpoint file to watch for retrains (empty = no watcher); both
  /// pac-classification and pac-search-result files are accepted.
  std::string watch_path;
  /// Watcher poll interval in seconds.
  double watch_interval_s = 0.25;
};

class Server {
 public:
  /// `model` must outlive the server; `initial` becomes generation 1.
  Server(const ac::Model& model, ac::Classification initial,
         ServerOptions opts);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, and launch the threads.  Throws on bind failure.
  void start();

  /// Stop accepting, drain the queue, join every thread.  Idempotent.
  void stop();

  /// Concrete bound address (resolves an ephemeral port); valid after
  /// start().
  const std::string& bound_address() const noexcept { return bound_address_; }

  /// Generation of the currently served classification (starts at 1).
  std::uint64_t generation() const;

  /// Swap in a new classification (RCU flip); returns its generation.
  std::uint64_t publish(ac::Classification c);

  /// Load watch_path now and publish on success.  Never throws: failures
  /// come back in the response (and count toward reload_failures).
  ReloadResponse reload_now();

  /// Worker-owned metrics.  Safe to read only after stop(); live servers
  /// report through the kStats request instead.
  const metrics::Registry& metrics() const noexcept { return metrics_; }

  std::uint64_t busy_rejections() const noexcept {
    return busy_rejections_.load();
  }
  std::uint64_t reload_failures() const noexcept {
    return reload_failures_.load();
  }

 private:
  struct Snapshot {
    ac::Classification classification;
    std::uint64_t generation = 0;
  };

  struct Connection {
    mp::transport::Fd fd;
    std::uint64_t id = 0;
    std::mutex send_mutex;
    std::uint64_t send_seq = 0;
    std::thread reader;
    std::atomic<bool> finished{false};  // set by the reader as it exits
  };

  struct QueueItem {
    std::shared_ptr<Connection> conn;
    std::int32_t request_id = 0;
    RequestType type = RequestType::kInfo;
    // predict only:
    data::Dataset rows;
    bool want_membership = false;
    // top-influence only:
    std::uint32_t top_k = 0;
    std::chrono::steady_clock::time_point enqueue_time;
  };

  std::shared_ptr<const Snapshot> snapshot() const;

  /// Pause after a failed accept (e.g. EMFILE at the fd limit), so the
  /// accept thread waits for fds to free instead of spinning a core.
  static constexpr std::chrono::milliseconds kAcceptRetryDelay{10};

  void accept_loop();
  /// Join and drop every finished connection.  Caller holds conns_mutex_.
  void reap_finished();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  void handle_request(const std::shared_ptr<Connection>& conn,
                      const mp::transport::FrameHeader& h,
                      const std::vector<std::byte>& payload);
  void enqueue(QueueItem item);
  void worker_loop();
  void watcher_loop();
  void handle_control(const QueueItem& item);
  void run_predict_batch(std::vector<QueueItem> batch);
  void send_response(Connection& conn, std::int32_t request_id,
                     std::int32_t tag, const std::vector<std::byte>& body);
  void send_error(Connection& conn, std::int32_t request_id,
                  const std::string& message);

  const ac::Model& model_;
  ServerOptions opts_;
  AdmissionRules rules_;
  mp::transport::FrameLimits limits_;

  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const Snapshot> current_;

  mp::transport::Fd listener_;
  std::string bound_address_;
  std::thread accept_thread_;
  std::thread worker_thread_;
  std::thread watcher_thread_;

  std::mutex conns_mutex_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::uint64_t next_conn_id_ = 1;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<QueueItem> queue_;
  std::size_t queued_rows_ = 0;  // guarded by queue_mutex_

  std::mutex watch_mutex_;
  std::condition_variable watch_cv_;

  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stopped_ = false;

  std::atomic<std::uint64_t> busy_rejections_{0};
  std::atomic<std::uint64_t> reload_failures_{0};
  std::atomic<std::uint64_t> reloads_{0};

  metrics::Registry metrics_;  // owned by the worker thread while running
};

}  // namespace pac::serve
