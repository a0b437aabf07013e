#include "serve/server.hpp"

#include <sys/socket.h>
#include <sys/stat.h>

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "autoclass/checkpoint.hpp"
#include "autoclass/report.hpp"

namespace pac::serve {

namespace mt = mp::transport;

namespace {

/// Copy every value of `src` into `dst` starting at row `dst_begin`
/// (micro-batch concatenation; schemas already equal).
void copy_rows(data::Dataset& dst, std::size_t dst_begin,
               const data::Dataset& src) {
  const data::Schema& schema = src.schema();
  for (std::size_t i = 0; i < src.num_items(); ++i) {
    for (std::size_t a = 0; a < schema.size(); ++a) {
      if (src.is_missing(i, a)) continue;
      if (schema.at(a).kind == data::AttributeKind::kReal)
        dst.set_real(dst_begin + i, a, src.real_value(i, a));
      else
        dst.set_discrete(dst_begin + i, a, src.discrete_value(i, a));
    }
  }
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Server::Server(const ac::Model& model, ac::Classification initial,
               ServerOptions opts)
    : model_(model),
      opts_(std::move(opts)),
      rules_(derive_admission_rules(model)),
      limits_{kMaxRequestBytes, /*allow_empty_payload=*/false},
      current_(std::make_shared<const Snapshot>(
          Snapshot{std::move(initial), 1})) {}

Server::~Server() { stop(); }

std::shared_ptr<const Server::Snapshot> Server::snapshot() const {
  std::lock_guard<std::mutex> lk(snapshot_mutex_);
  return current_;
}

std::uint64_t Server::generation() const { return snapshot()->generation; }

std::uint64_t Server::publish(ac::Classification c) {
  std::lock_guard<std::mutex> lk(snapshot_mutex_);
  const std::uint64_t gen = current_->generation + 1;
  current_ = std::make_shared<const Snapshot>(Snapshot{std::move(c), gen});
  return gen;
}

ReloadResponse Server::reload_now() {
  ReloadResponse resp;
  if (opts_.watch_path.empty()) {
    resp.generation = generation();
    resp.message = "no checkpoint path configured";
    return resp;
  }
  try {
    std::ifstream in(opts_.watch_path);
    if (!in.good())
      throw pac::Error("cannot open checkpoint file '" + opts_.watch_path +
                       "'");
    // Sniff the magic: a serve checkpoint may be either a bare
    // classification or a whole search result (we take its best entry).
    std::string first;
    in >> first;
    in.clear();
    in.seekg(0);
    std::optional<ac::Classification> loaded;
    if (first == "pac-search-result") {
      ac::SearchResult sr = ac::load_search_result(in, model_);
      if (sr.best.empty())
        throw pac::Error("search-result checkpoint has an empty leaderboard");
      loaded.emplace(std::move(sr.best.front().classification));
    } else {
      loaded.emplace(ac::load_classification(in, model_));
    }
    resp.generation = publish(std::move(*loaded));
    resp.reloaded = true;
    resp.message = "reloaded from '" + opts_.watch_path + "'";
    reloads_.fetch_add(1);
  } catch (const std::exception& e) {
    reload_failures_.fetch_add(1);
    resp.generation = generation();
    resp.reloaded = false;
    resp.message = e.what();
  }
  return resp;
}

void Server::start() {
  PAC_REQUIRE_MSG(!started_, "server already started");
  const mt::Endpoint ep = mt::parse_endpoint(opts_.address);
  listener_ = mt::listen_on(ep, bound_address_);
  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
  worker_thread_ = std::thread([this] { worker_loop(); });
  if (!opts_.watch_path.empty())
    watcher_thread_ = std::thread([this] { watcher_loop(); });
}

void Server::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  stopping_.store(true);

  // Unblock accept(); keep the fd alive until the thread has joined.
  ::shutdown(listener_.get(), SHUT_RDWR);
  accept_thread_.join();
  listener_.close();

  // Kick every reader out of read_frame, then join them so the queue
  // stops growing before the worker drains it.
  {
    std::lock_guard<std::mutex> lk(conns_mutex_);
    for (const auto& conn : conns_) ::shutdown(conn->fd.get(), SHUT_RDWR);
  }
  for (const auto& conn : conns_)
    if (conn->reader.joinable()) conn->reader.join();

  queue_cv_.notify_all();
  worker_thread_.join();

  if (watcher_thread_.joinable()) {
    watch_cv_.notify_all();
    watcher_thread_.join();
  }
  conns_.clear();
}

void Server::reap_finished() {
  // A finished reader has nothing left to do but return, so the join is
  // immediate; dropping the list's reference closes the fd unless a queued
  // request still holds the connection.
  std::erase_if(conns_, [](const std::shared_ptr<Connection>& done) {
    if (!done->finished.load()) return false;
    done->reader.join();
    return true;
  });
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    std::shared_ptr<Connection> conn;
    try {
      mt::Fd fd = mt::accept_from(listener_);
      conn = std::make_shared<Connection>();
      conn->fd = std::move(fd);
    } catch (const std::exception&) {
      if (stopping_.load()) return;
      // Keep serving.  Out of fds (EMFILE), no accept can succeed until a
      // finished connection's fd closes, and that happens only when it is
      // reaped: reap here too, then back off instead of spinning.
      {
        std::lock_guard<std::mutex> lk(conns_mutex_);
        reap_finished();
      }
      std::this_thread::sleep_for(kAcceptRetryDelay);
      continue;
    }
    std::lock_guard<std::mutex> lk(conns_mutex_);
    if (stopping_.load()) return;  // raced with stop(); drop the socket
    reap_finished();
    conn->id = next_conn_id_++;
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
    conns_.push_back(conn);
  }
}

void Server::reader_loop(const std::shared_ptr<Connection>& conn) {
  mt::FrameHeader h;
  std::vector<std::byte> payload;
  const std::string what = "serve client #" + std::to_string(conn->id);
  // Whatever ends this loop — clean shutdown, EOF, or a corrupt stream —
  // the peer must see the socket close rather than block on a response
  // that will never come.  Marking the connection finished is the last
  // act, so the accept thread may then join this reader.
  struct CloseOnExit {
    Connection* conn;
    ~CloseOnExit() {
      ::shutdown(conn->fd.get(), SHUT_RDWR);
      conn->finished.store(true);
    }
  } closer{conn.get()};
  try {
    while (!stopping_.load()) {
      if (!mt::read_frame(conn->fd, limits_, h, payload, what)) return;
      if (h.kind == mt::kFrameShutdown) return;
      if (h.context != kProtocolVersion) {
        send_error(*conn, h.source,
                   "protocol version mismatch: got " +
                       std::to_string(h.context) + ", this server speaks v" +
                       std::to_string(kProtocolVersion));
        continue;
      }
      handle_request(conn, h, payload);
    }
  } catch (const std::exception&) {
    // Malformed frame or dead socket: the stream can no longer be trusted,
    // so the connection is dropped (individual bad *bodies* are handled
    // per request inside handle_request and do not land here).
  }
}

void Server::handle_request(const std::shared_ptr<Connection>& conn,
                            const mt::FrameHeader& h,
                            const std::vector<std::byte>& payload) {
  QueueItem item;
  item.conn = conn;
  item.request_id = h.source;
  item.enqueue_time = std::chrono::steady_clock::now();
  try {
    PayloadReader r(payload);
    switch (h.tag) {
      case static_cast<std::int32_t>(RequestType::kPredict): {
        item.type = RequestType::kPredict;
        item.want_membership = r.u8() != 0;
        const std::uint32_t num_rows = r.u32();
        item.rows = decode_rows(r, model_.dataset().schema(), num_rows);
        r.expect_exhausted();
        validate_batch(rules_, item.rows);
        break;
      }
      case static_cast<std::int32_t>(RequestType::kTopInfluence):
        item.type = RequestType::kTopInfluence;
        item.top_k = r.u32();
        r.expect_exhausted();
        break;
      case static_cast<std::int32_t>(RequestType::kInfo):
      case static_cast<std::int32_t>(RequestType::kStats):
      case static_cast<std::int32_t>(RequestType::kReload):
        item.type = static_cast<RequestType>(h.tag);
        r.u8();  // reserved byte (bodies are never empty on the wire)
        r.expect_exhausted();
        break;
      default:
        throw ProtocolError("unknown request tag " + std::to_string(h.tag));
    }
  } catch (const std::exception& e) {
    send_error(*conn, h.source, e.what());
    return;
  }
  enqueue(std::move(item));
}

void Server::enqueue(QueueItem item) {
  const std::size_t rows = item.rows.num_items();
  std::size_t depth = 0;
  bool rejected = false;
  {
    std::lock_guard<std::mutex> lk(queue_mutex_);
    if (item.type == RequestType::kPredict &&
        queued_rows_ + rows > opts_.max_queue_rows) {
      rejected = true;
      depth = queued_rows_;
    } else {
      queued_rows_ += rows;
      queue_.push_back(std::move(item));
    }
  }
  if (rejected) {
    busy_rejections_.fetch_add(1);
    send_error(*item.conn, item.request_id,
               "server busy: " + std::to_string(depth) +
                   " rows queued (limit " +
                   std::to_string(opts_.max_queue_rows) + ")");
    return;
  }
  queue_cv_.notify_one();
}

void Server::worker_loop() {
  const auto max_delay = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(opts_.max_delay_ms));
  while (true) {
    std::unique_lock<std::mutex> lk(queue_mutex_);
    queue_cv_.wait(lk, [this] { return stopping_.load() || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_.load()) return;  // drained
      continue;
    }
    QueueItem first = std::move(queue_.front());
    queue_.pop_front();
    if (first.type != RequestType::kPredict) {
      lk.unlock();
      handle_control(first);
      continue;
    }
    // Micro-batch gather: take consecutive predicts until the row cap or
    // the delay window from the first request's enqueue elapses.
    std::vector<QueueItem> batch;
    std::size_t rows = first.rows.num_items();
    const auto deadline = first.enqueue_time + max_delay;
    batch.push_back(std::move(first));
    while (rows < opts_.max_batch_rows && !stopping_.load()) {
      if (!queue_.empty()) {
        if (queue_.front().type != RequestType::kPredict) break;
        rows += queue_.front().rows.num_items();
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
        continue;
      }
      if (queue_cv_.wait_until(lk, deadline) == std::cv_status::timeout)
        break;
    }
    queued_rows_ -= rows;
    metrics_.histogram("serve.queue_depth_rows")
        .observe(static_cast<double>(queued_rows_));
    lk.unlock();
    run_predict_batch(std::move(batch));
  }
}

void Server::run_predict_batch(std::vector<QueueItem> batch) {
  const auto snap = snapshot();  // in-flight batches finish on this model
  std::size_t total_rows = 0;
  bool want_membership = false;
  for (const QueueItem& item : batch) {
    total_rows += item.rows.num_items();
    want_membership = want_membership || item.want_membership;
  }
  metrics_.counter("serve.batches").add(1);
  metrics_.counter("serve.requests_predict").add(batch.size());
  metrics_.counter("serve.rows_predicted").add(total_rows);
  metrics_.histogram("serve.batch_rows")
      .observe(static_cast<double>(total_rows));

  ac::PredictOutput out;
  try {
    if (batch.size() == 1) {
      out = ac::predict_batch(snap->classification, batch[0].rows,
                              want_membership);
    } else {
      data::Dataset all(model_.dataset().schema(), total_rows);
      std::size_t offset = 0;
      for (const QueueItem& item : batch) {
        copy_rows(all, offset, item.rows);
        offset += item.rows.num_items();
      }
      out = ac::predict_batch(snap->classification, all, want_membership);
    }
  } catch (const std::exception& e) {
    for (const QueueItem& item : batch)
      send_error(*item.conn, item.request_id, e.what());
    return;
  }

  const std::size_t j = snap->classification.num_classes();
  std::size_t offset = 0;
  for (const QueueItem& item : batch) {
    const std::size_t n = item.rows.num_items();
    PredictResponse resp;
    resp.generation = snap->generation;
    resp.num_classes = static_cast<std::uint32_t>(j);
    resp.labels.assign(out.labels.begin() + offset,
                       out.labels.begin() + offset + n);
    if (item.want_membership)
      resp.membership.assign(out.membership.begin() + offset * j,
                             out.membership.begin() + (offset + n) * j);
    PayloadWriter w;
    encode_predict_response(w, resp, item.want_membership);
    send_response(*item.conn, item.request_id,
                  static_cast<std::int32_t>(RequestType::kPredict),
                  w.bytes());
    metrics_.histogram("serve.request_seconds")
        .observe(seconds_since(item.enqueue_time));
    offset += n;
  }
}

void Server::handle_control(const QueueItem& item) {
  const auto snap = snapshot();
  metrics_.counter("serve.requests_control").add(1);
  PayloadWriter w;
  std::int32_t tag = static_cast<std::int32_t>(item.type);
  switch (item.type) {
    case RequestType::kInfo: {
      InfoResponse info;
      info.generation = snap->generation;
      info.num_classes =
          static_cast<std::uint32_t>(snap->classification.num_classes());
      info.log_likelihood = snap->classification.log_likelihood;
      info.cs_score = snap->classification.cs_score;
      info.bic_score = snap->classification.bic_score;
      const data::Schema& schema = model_.dataset().schema();
      for (std::size_t a = 0; a < schema.size(); ++a) {
        AttributeInfo ai;
        ai.name = schema.at(a).name;
        ai.discrete = schema.at(a).kind == data::AttributeKind::kDiscrete;
        ai.num_values = schema.at(a).num_values;
        info.attributes.push_back(std::move(ai));
      }
      encode_info(w, info);
      break;
    }
    case RequestType::kTopInfluence: {
      TopInfluenceResponse resp;
      resp.generation = snap->generation;
      const auto entries = ac::influence_report(snap->classification);
      const std::size_t k =
          std::min<std::size_t>(item.top_k, entries.size());
      for (std::size_t i = 0; i < k; ++i) {
        InfluenceEntryWire e;
        e.class_index = static_cast<std::uint32_t>(entries[i].class_index);
        e.term_index = static_cast<std::uint32_t>(entries[i].term_index);
        e.influence = entries[i].influence;
        e.description = model_.term(entries[i].term_index)
                            .describe(snap->classification.param_block(
                                entries[i].class_index,
                                entries[i].term_index));
        resp.entries.push_back(std::move(e));
      }
      encode_top_influence(w, resp);
      break;
    }
    case RequestType::kStats: {
      std::ostringstream os;
      metrics::write_report(os, metrics_, "pac_serve");
      os << "generation " << snap->generation << "\n";
      os << "reloads " << reloads_.load() << "\n";
      os << "reload_failures " << reload_failures_.load() << "\n";
      os << "busy_rejections " << busy_rejections_.load() << "\n";
      w.str(os.str());
      break;
    }
    case RequestType::kReload: {
      encode_reload(w, reload_now());
      break;
    }
    case RequestType::kPredict:
      return;  // unreachable: predicts go through run_predict_batch
  }
  send_response(*item.conn, item.request_id, tag, w.bytes());
  metrics_.histogram("serve.request_seconds")
      .observe(seconds_since(item.enqueue_time));
}

void Server::send_response(Connection& conn, std::int32_t request_id,
                           std::int32_t tag,
                           const std::vector<std::byte>& body) {
  mt::FrameHeader h;
  h.kind = mt::kFrameData;
  h.context = kProtocolVersion;
  h.source = request_id;
  h.tag = tag;
  h.nbytes = body.size();
  std::lock_guard<std::mutex> lk(conn.send_mutex);
  h.seq = conn.send_seq++;
  try {
    mt::write_frame(conn.fd, h, body.data(), body.size(), limits_,
                    "serve response");
  } catch (const std::exception&) {
    // Client went away mid-response; its reader thread will notice too.
  }
}

void Server::send_error(Connection& conn, std::int32_t request_id,
                        const std::string& message) {
  PayloadWriter w;
  w.str(message);
  send_response(conn, request_id, kErrorTag, w.bytes());
}

void Server::watcher_loop() {
  struct ::stat st{};
  bool have_baseline = ::stat(opts_.watch_path.c_str(), &st) == 0;
  auto changed = [&](const struct ::stat& now) {
    return now.st_mtim.tv_sec != st.st_mtim.tv_sec ||
           now.st_mtim.tv_nsec != st.st_mtim.tv_nsec ||
           now.st_size != st.st_size || now.st_ino != st.st_ino;
  };
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(opts_.watch_interval_s));
  std::unique_lock<std::mutex> lk(watch_mutex_);
  while (!stopping_.load()) {
    watch_cv_.wait_for(lk, interval);
    if (stopping_.load()) return;
    struct ::stat now{};
    if (::stat(opts_.watch_path.c_str(), &now) != 0) continue;
    if (have_baseline && !changed(now)) continue;
    st = now;
    have_baseline = true;
    if (reload_now().reloaded) {
      // Re-stat after a successful load: the writer may have replaced the
      // file again mid-parse; the next tick will pick that version up.
      if (::stat(opts_.watch_path.c_str(), &now) == 0) st = now;
    }
  }
}

}  // namespace pac::serve
