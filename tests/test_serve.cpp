// pac_serve subsystem tests: checkpoint round-trips through the serving
// kernel for every term family, corrupt-checkpoint rejection with named
// line/field, predictor bit-identity against the scalar oracle on every
// storage backend, the wire protocol codec, and the live server end to
// end — concurrent clients, hot reload under load, backpressure, and
// malformed requests.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "autoclass/checkpoint.hpp"
#include "autoclass/report.hpp"
#include "autoclass/search.hpp"
#include "data/format.hpp"
#include "data/synth.hpp"
#include "mp/transport/frame.hpp"
#include "serve/client.hpp"
#include "serve/predictor.hpp"
#include "serve/server.hpp"
#include "util/math.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace pac::serve {
namespace {

using data::Attribute;
using data::Dataset;
using data::Schema;
namespace mt = mp::transport;

// ---- fixtures: a model exercising all five term families ----

Schema five_family_schema() {
  return Schema({Attribute::real("x", 0.01), Attribute::discrete("d", 3),
                 Attribute::real("y", 0.01), Attribute::real("z", 0.01),
                 Attribute::real("w", 0.01), Attribute::real("junk", 0.01)});
}

/// Two latent clusters over: x (single_normal), d (single_multinomial),
/// y+z (multi_normal block, correlated), w > 0 (single_lognormal), and a
/// junk attribute the model ignores.
Dataset five_family_dataset(std::size_t n, std::uint64_t seed) {
  Dataset ds(five_family_schema(), n);
  Xoshiro256ss rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool c = i % 2 == 0;
    ds.set_real(i, 0, (c ? 0.0 : 6.0) + normal01(rng));
    const double u =
        static_cast<double>(rng() >> 11) * 0x1.0p-53;  // uniform [0,1)
    const std::int32_t d =
        c ? (u < 0.8 ? 0 : 1) : (u < 0.8 ? 2 : 1);
    ds.set_discrete(i, 1, d);
    const double g1 = normal01(rng);
    const double g2 = normal01(rng);
    ds.set_real(i, 2, (c ? -3.0 : 3.0) + g1);
    ds.set_real(i, 3, (c ? -3.0 : 3.0) + 0.8 * g1 + 0.6 * g2);
    ds.set_real(i, 4, std::exp((c ? 0.0 : 2.0) + 0.3 * normal01(rng)));
    ds.set_real(i, 5, normal01(rng));
  }
  return ds;
}

ac::Model five_family_model(const Dataset& ds) {
  std::vector<ac::TermSpec> specs(5);
  specs[0] = {ac::TermKind::kSingleNormal, {0}};
  specs[1] = {ac::TermKind::kSingleMultinomial, {1}};
  specs[2] = {ac::TermKind::kMultiNormal, {2, 3}};
  specs[3] = {ac::TermKind::kSingleLognormal, {4}};
  specs[4] = {ac::TermKind::kIgnore, {5}};
  return ac::Model(ds, specs);
}

ac::Classification fit(const ac::Model& model, int j = 2,
                       std::uint64_t seed = 1234) {
  ac::SearchConfig config;
  config.start_j_list = {j};
  config.max_tries = 1;
  config.em.max_cycles = 25;
  config.seed = seed;
  return ac::sequential_search(model, config).top();
}

std::vector<double> log_joint_matrix(const ac::Classification& c,
                                     const Dataset& batch) {
  const PredictOutput out = predict_batch(c, batch, true);
  return out.membership;  // fully determined by the log-joint rows
}

// ---- checkpoint round trips (satellite: all five term families) ----

TEST(CheckpointRoundTrip, AllFiveFamiliesBitIdenticalThroughFillLogJoint) {
  const Dataset train = five_family_dataset(400, 21);
  const ac::Model model = five_family_model(train);
  const ac::Classification c = fit(model);

  std::stringstream ss;
  ac::save_classification(ss, c);
  const ac::Classification loaded = ac::load_classification(ss, model);

  // Parameters round-trip bit for bit (17-significant-digit ASCII).
  ASSERT_EQ(loaded.num_classes(), c.num_classes());
  ASSERT_EQ(loaded.all_params().size(), c.all_params().size());
  EXPECT_EQ(0, std::memcmp(loaded.all_params().data(), c.all_params().data(),
                           c.all_params().size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(loaded.log_pis().data(), c.log_pis().data(),
                           c.log_pis().size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(loaded.weights().data(), c.weights().data(),
                           c.weights().size() * sizeof(double)));

  // ... and so do predictions through the serving kernel path.
  const Dataset probe = five_family_dataset(128, 22);
  const auto before = log_joint_matrix(c, probe);
  const auto after = log_joint_matrix(loaded, probe);
  ASSERT_EQ(before.size(), after.size());
  EXPECT_EQ(0, std::memcmp(before.data(), after.data(),
                           before.size() * sizeof(double)));

  const auto labels_before = predict_batch(c, probe, false).labels;
  const auto labels_after = predict_batch(loaded, probe, false).labels;
  EXPECT_EQ(labels_before, labels_after);
}

TEST(CheckpointRoundTrip, SearchResultPreservesBestPredictions) {
  const Dataset train = five_family_dataset(300, 23);
  const ac::Model model = five_family_model(train);
  ac::SearchConfig config;
  config.start_j_list = {2, 3};
  config.max_tries = 2;
  config.em.max_cycles = 15;
  const ac::SearchResult result = ac::sequential_search(model, config);

  std::stringstream ss;
  ac::save_search_result(ss, result);
  const ac::SearchResult loaded = ac::load_search_result(ss, model);
  ASSERT_EQ(loaded.best.size(), result.best.size());

  const Dataset probe = five_family_dataset(64, 24);
  const auto before = log_joint_matrix(result.top(), probe);
  const auto after = log_joint_matrix(loaded.top(), probe);
  EXPECT_EQ(0, std::memcmp(before.data(), after.data(),
                           before.size() * sizeof(double)));
}

// ---- corrupt / truncated checkpoint rejection ----

class CheckpointReject : public ::testing::Test {
 protected:
  void SetUp() override {
    train_ = five_family_dataset(120, 25);
    model_.emplace(five_family_model(train_));
    std::stringstream ss;
    ac::save_classification(ss, fit(*model_));
    text_ = ss.str();
  }

  ac::CheckpointError load_expecting_error(const std::string& text) {
    std::istringstream in(text);
    try {
      ac::load_classification(in, *model_);
    } catch (const ac::CheckpointError& e) {
      return e;
    }
    ADD_FAILURE() << "load_classification accepted: " << text.substr(0, 80);
    return ac::CheckpointError(0, "", "");
  }

  Dataset train_;
  std::optional<ac::Model> model_;
  std::string text_;
};

TEST_F(CheckpointReject, EveryTruncationThrowsCheckpointError) {
  for (std::size_t len = 0; len + 1 < text_.size(); len += 7) {
    std::istringstream in(text_.substr(0, len));
    EXPECT_THROW(ac::load_classification(in, *model_), ac::CheckpointError)
        << "prefix length " << len;
  }
}

TEST_F(CheckpointReject, BadMagicNamesLineOne) {
  const auto e = load_expecting_error("pac-nonsense v1 classes 2");
  EXPECT_EQ(e.line(), 1u);
  EXPECT_EQ(e.field(), "pac-classification");
  EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos);
}

TEST_F(CheckpointReject, NegativeClassCountNamesField) {
  std::string t = text_;
  const auto pos = t.find("classes ");
  t.replace(pos, t.find(' ', pos + 8) - pos, "classes -3");
  const auto e = load_expecting_error(t);
  EXPECT_EQ(e.field(), "class count");
}

TEST_F(CheckpointReject, OversizedClassCountRejectedBeforeAllocation) {
  const auto e = load_expecting_error(
      "pac-classification v1 classes 18446744073709551615 params_per_class "
      "4");
  EXPECT_EQ(e.field(), "class count");
}

TEST_F(CheckpointReject, ClassCountAboveCapRejected) {
  const auto e = load_expecting_error(
      "pac-classification v1 classes 1000000 params_per_class 4");
  EXPECT_EQ(e.field(), "class count");
  EXPECT_NE(std::string(e.what()).find("limit"), std::string::npos);
}

TEST_F(CheckpointReject, StructureMismatchNamesParamsPerClass) {
  std::string t = text_;
  const auto pos = t.find("params_per_class ");
  t.replace(pos, t.find('\n', pos) - pos, "params_per_class 9999");
  const auto e = load_expecting_error(t);
  EXPECT_EQ(e.field(), "params_per_class");
  EXPECT_NE(std::string(e.what()).find("different model structure"),
            std::string::npos);
}

TEST_F(CheckpointReject, MalformedScoreNamesLineAndField) {
  std::string t = text_;
  t.replace(t.find("scores "), 7, "scores abc ");
  const auto e = load_expecting_error(t);
  EXPECT_EQ(e.field(), "log_likelihood");
  EXPECT_EQ(e.line(), 3u);  // line 1 magic, 2 classes, 3 scores
}

TEST_F(CheckpointReject, MalformedWeightNamesField) {
  std::string t = text_;
  t.replace(t.find("weights "), 8, "weights not-a-number ");
  const auto e = load_expecting_error(t);
  EXPECT_EQ(e.field(), "weights");
}

TEST_F(CheckpointReject, MissingEndTokenRejected) {
  std::string t = text_;
  t.replace(t.rfind("end"), 3, "");
  EXPECT_EQ(load_expecting_error(t).field(), "end");
}

// ---- predictor ----

/// The scalar oracle of a prediction: one Model::rebound, then per row
/// log pi_j + the sum of Term::log_prob in term order, normalized with
/// logsumexp + pac::exp; the label is the first maximum.
PredictOutput scalar_oracle(const ac::Classification& c, const Dataset& rows) {
  const ac::Model bound = c.model().rebound(rows);
  const std::size_t j = c.num_classes();
  PredictOutput out;
  std::vector<double> lj(j);
  for (std::size_t i = 0; i < rows.num_items(); ++i) {
    for (std::size_t k = 0; k < j; ++k) {
      double lp = c.log_pi(k);
      for (std::size_t t = 0; t < bound.num_terms(); ++t)
        lp += bound.term(t).log_prob(i, c.param_block(k, t));
      lj[k] = lp;
    }
    out.labels.push_back(static_cast<std::int32_t>(
        std::max_element(lj.begin(), lj.end()) - lj.begin()));
    const double lse = logsumexp(lj);
    for (const double v : lj) out.membership.push_back(pac::exp(v - lse));
  }
  return out;
}

void expect_same_doubles(const std::vector<double>& a,
                         const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)));
}

TEST(Predictor, MatchesOfflinePredictionHelpers) {
  const Dataset train = five_family_dataset(400, 26);
  const ac::Model model = five_family_model(train);
  const ac::Classification c = fit(model);
  const Dataset probe = five_family_dataset(150, 27);

  const PredictOutput out = predict_batch(c, probe, true);
  const PredictOutput oracle = scalar_oracle(c, probe);
  EXPECT_EQ(out.labels, oracle.labels);
  expect_same_doubles(out.membership, oracle.membership);
  // The offline helpers are the same evaluator.
  EXPECT_EQ(ac::predict_labels(c, probe), oracle.labels);
  const std::size_t j = c.num_classes();
  for (std::size_t i = 0; i < probe.num_items(); ++i)
    expect_same_doubles(
        ac::predict_membership(c, probe, i),
        std::vector<double>(oracle.membership.begin() + i * j,
                            oracle.membership.begin() + (i + 1) * j));
}

TEST(Predictor, ChunkedForeignRowsMatchResident) {
  const Dataset train = five_family_dataset(400, 32);
  const ac::Model model = five_family_model(train);
  const ac::Classification c = fit(model, 3);
  // 700 rows in 193-row chunks (not a multiple of the 256-row block) under
  // a budget far below the file size, so blocks straddle chunks and chunks
  // are evicted and reloaded while one call runs.
  const Dataset resident = five_family_dataset(700, 33);
  const std::string path =
      "/tmp/pac_serve_foreign_" + std::to_string(::getpid()) + ".pacb";
  data::format::write_pacb_file(path, resident, /*chunk_rows=*/193);
  const Dataset chunked(data::ChunkedStore::open(path, /*budget_bytes=*/8192));
  ASSERT_FALSE(chunked.resident());

  const PredictOutput want = predict_batch(c, resident, true);
  const PredictOutput got = predict_batch(c, chunked, true);
  EXPECT_EQ(got.labels, want.labels);
  expect_same_doubles(got.membership, want.membership);
  EXPECT_EQ(ac::predict_labels(c, chunked), want.labels);
  const double ll_resident = ac::predict_log_likelihood(c, resident);
  const double ll_chunked = ac::predict_log_likelihood(c, chunked);
  EXPECT_EQ(0, std::memcmp(&ll_resident, &ll_chunked, sizeof(double)));
  std::remove(path.c_str());
}

TEST(Predictor, BadRowFailsBatchButNotOtherRows) {
  const Dataset train = five_family_dataset(300, 34);
  const ac::Model model = five_family_model(train);
  const ac::Classification c = fit(model);
  struct Case {
    const char* attribute;
    std::function<void(Dataset&)> spoil;
  };
  const Case cases[] = {
      {"'w'", [](Dataset& d) { d.set_real(3, 4, -2.0); }},  // lognormal
      {"'z'", [](Dataset& d) { d.set_missing(3, 3); }},      // multi_normal
  };
  for (const Case& bad : cases) {
    SCOPED_TRACE(bad.attribute);
    Dataset probe = five_family_dataset(8, 35);
    const Dataset clean = probe.slice(5, 6);
    bad.spoil(probe);
    // Row 5 is evaluated alone, so row 3's value cannot fail it.
    const std::vector<double> m = ac::predict_membership(c, probe, 5);
    expect_same_doubles(m, scalar_oracle(c, clean).membership);
    try {
      (void)ac::predict_labels(c, probe);
      FAIL() << "bad row admitted";
    } catch (const pac::Error& e) {
      EXPECT_NE(std::string(e.what()).find(bad.attribute), std::string::npos)
          << e.what();
    }
  }
}

TEST(Predictor, EmptyForeignDatasetGivesEmptyResults) {
  const Dataset train = five_family_dataset(200, 36);
  const ac::Model model = five_family_model(train);
  const ac::Classification c = fit(model);
  const Dataset empty(five_family_schema(), 0);
  EXPECT_TRUE(ac::predict_labels(c, empty).empty());
  EXPECT_EQ(ac::predict_log_likelihood(c, empty), 0.0);
  const PredictOutput out = predict_batch(c, empty, true);
  EXPECT_TRUE(out.labels.empty());
  EXPECT_TRUE(out.membership.empty());
}

TEST(Predictor, TrainingRowsMatchAssignLabels) {
  const Dataset train = five_family_dataset(300, 28);
  const ac::Model model = five_family_model(train);
  const ac::Classification c = fit(model);
  // Serving the training rows themselves must reproduce assign_labels
  // (both route through fill_log_joint).
  const PredictOutput out = predict_batch(c, train, false);
  EXPECT_EQ(out.labels, ac::assign_labels(c));
}

TEST(Predictor, AdmissionRulesFromTermFamilies) {
  const Dataset train = five_family_dataset(100, 29);
  const ac::Model model = five_family_model(train);
  const AdmissionRules rules = derive_admission_rules(model);
  ASSERT_EQ(rules.requires_positive.size(), 6u);
  EXPECT_FALSE(rules.requires_positive[0]);
  EXPECT_TRUE(rules.requires_positive[4]);  // lognormal attribute
  EXPECT_TRUE(rules.forbids_missing[2]);    // multi_normal block
  EXPECT_TRUE(rules.forbids_missing[3]);
  EXPECT_FALSE(rules.forbids_missing[0]);

  Dataset bad = five_family_dataset(3, 30);
  bad.set_real(1, 4, -2.0);
  try {
    validate_batch(rules, bad);
    FAIL() << "negative lognormal value admitted";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("row 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'w'"), std::string::npos);
  }

  Dataset missing = five_family_dataset(3, 31);
  missing.set_missing(2, 3);
  try {
    validate_batch(rules, missing);
    FAIL() << "missing multi_normal value admitted";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("'z'"), std::string::npos);
  }
}

// ---- payload codec ----

TEST(Protocol, ReaderRejectsTruncationAndTrailingBytes) {
  PayloadWriter w;
  w.u32(7);
  w.f64(1.5);
  PayloadReader r(w.bytes());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_EQ(r.f64(), 1.5);
  EXPECT_TRUE(r.exhausted());
  EXPECT_THROW(r.u8(), ProtocolError);

  PayloadReader trailing(w.bytes());
  trailing.u32();
  EXPECT_THROW(trailing.expect_exhausted(), ProtocolError);
}

TEST(Protocol, StringLengthBoundedByBody) {
  PayloadWriter w;
  w.u32(0xFFFFFF);  // claims a 16 MiB string in a 4-byte body
  PayloadReader r(w.bytes());
  EXPECT_THROW(r.str(), ProtocolError);
}

TEST(Protocol, RowsRoundTripWithMissingValues) {
  Dataset rows = five_family_dataset(9, 32);
  rows.set_missing(4, 0);
  rows.set_missing(5, 1);
  PayloadWriter w;
  encode_rows(w, rows, 0, rows.num_items());
  PayloadReader r(w.bytes());
  const Dataset decoded = decode_rows(r, rows.schema(), rows.num_items());
  r.expect_exhausted();
  for (std::size_t i = 0; i < rows.num_items(); ++i)
    for (std::size_t a = 0; a < rows.num_attributes(); ++a) {
      ASSERT_EQ(decoded.is_missing(i, a), rows.is_missing(i, a));
      if (rows.is_missing(i, a)) continue;
      if (rows.schema().at(a).kind == data::AttributeKind::kReal)
        EXPECT_EQ(decoded.real_value(i, a), rows.real_value(i, a));
      else
        EXPECT_EQ(decoded.discrete_value(i, a), rows.discrete_value(i, a));
    }
}

TEST(Protocol, OutOfRangeDiscreteRejectedWithRowAndAttribute) {
  Dataset rows(five_family_schema(), 2);
  PayloadWriter w;
  // Row 0 valid, row 1 carries discrete value 7 for a range-3 attribute.
  for (std::size_t i = 0; i < 2; ++i) {
    w.f64(0.0);
    w.i32(i == 1 ? 7 : 0);
    w.f64(0.0);
    w.f64(0.0);
    w.f64(1.0);
    w.f64(0.0);
  }
  PayloadReader r(w.bytes());
  try {
    decode_rows(r, rows.schema(), 2);
    FAIL() << "out-of-range discrete admitted";
  } catch (const ProtocolError& e) {
    EXPECT_NE(std::string(e.what()).find("row 1"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("'d'"), std::string::npos);
  }
}

TEST(Protocol, RowCountCapEnforced) {
  PayloadWriter w;
  PayloadReader r(w.bytes());
  EXPECT_THROW(decode_rows(r, five_family_schema(), kMaxRowsPerRequest + 1),
               ProtocolError);
  PayloadReader r2(w.bytes());
  EXPECT_THROW(decode_rows(r2, five_family_schema(), 0), ProtocolError);
}

// ---- live server ----

struct ServeFixture {
  ServeFixture(int j = 2, ServerOptions opts = {})
      : train(five_family_dataset(500, 40)),
        model(five_family_model(train)),
        classification(fit(model, j)),
        server(model, ac::Classification(classification), opts) {
    server.start();
  }

  Dataset train;
  ac::Model model;
  ac::Classification classification;
  Server server;
};

TEST(Server, InfoReportsModelAndGeneration) {
  ServeFixture f;
  Client client(f.server.bound_address());
  const InfoResponse info = client.info();
  EXPECT_EQ(info.generation, 1u);
  EXPECT_EQ(info.num_classes, f.classification.num_classes());
  EXPECT_EQ(info.log_likelihood, f.classification.log_likelihood);
  ASSERT_EQ(info.attributes.size(), 6u);
  EXPECT_EQ(info.attributes[1].name, "d");
  EXPECT_TRUE(info.attributes[1].discrete);
  EXPECT_EQ(info.attributes[1].num_values, 3);
  EXPECT_FALSE(info.attributes[0].discrete);
}

TEST(Server, PredictBitIdenticalToOfflineKernel) {
  ServeFixture f;
  const Dataset probe = five_family_dataset(200, 41);
  const PredictOutput offline = predict_batch(f.classification, probe, true);

  Client client(f.server.bound_address());
  const PredictResponse resp = client.predict(probe, true);
  EXPECT_EQ(resp.generation, 1u);
  EXPECT_EQ(resp.labels, offline.labels);
  ASSERT_EQ(resp.membership.size(), offline.membership.size());
  EXPECT_EQ(0, std::memcmp(resp.membership.data(), offline.membership.data(),
                           offline.membership.size() * sizeof(double)));
}

TEST(Server, EightConcurrentClientsBitIdentical) {
  ServeFixture f;
  const Dataset probe = five_family_dataset(96, 42);
  const PredictOutput offline = predict_batch(f.classification, probe, true);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 6;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      try {
        Client client(f.server.bound_address());
        for (int k = 0; k < kRequestsPerClient; ++k) {
          const PredictResponse resp = client.predict(probe, true);
          if (resp.labels != offline.labels ||
              std::memcmp(resp.membership.data(), offline.membership.data(),
                          offline.membership.size() * sizeof(double)) != 0)
            mismatches.fetch_add(1);
        }
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(failures.load(), 0);
}

/// Append one request frame (header + body) to a byte buffer, so a test
/// can pipeline several requests in a single write.
void append_request(std::vector<std::byte>& out, std::int32_t request_id,
                    RequestType type, const std::vector<std::byte>& body) {
  mt::FrameHeader h;
  h.context = kProtocolVersion;
  h.source = request_id;
  h.tag = static_cast<std::int32_t>(type);
  h.nbytes = body.size();
  const auto* head = reinterpret_cast<const std::byte*>(&h);
  out.insert(out.end(), head, head + sizeof h);
  out.insert(out.end(), body.begin(), body.end());
}

/// Holds a reload_now() blocked in the open of a FIFO checkpoint until
/// release(), which opens and closes the FIFO's write end.  The destructor
/// releases too, so a failing test cannot leave the worker blocked and hang
/// Server::stop().
class FifoGate {
 public:
  explicit FifoGate(std::string path) : path_(std::move(path)) {
    ::unlink(path_.c_str());
    created_ = ::mkfifo(path_.c_str(), 0600) == 0;
  }
  ~FifoGate() {
    release();
    ::unlink(path_.c_str());
  }
  FifoGate(const FifoGate&) = delete;
  FifoGate& operator=(const FifoGate&) = delete;

  bool created() const { return created_; }
  const std::string& path() const { return path_; }

  /// Open the write end once the reader is in its open (a nonblocking
  /// write open fails with ENXIO until then), and close it at once: the
  /// reader sees an empty checkpoint.  Gives up after 10 s.
  void release() {
    if (!created_ || released_) return;
    released_ = true;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      const int fd = ::open(path_.c_str(), O_WRONLY | O_NONBLOCK);
      if (fd >= 0) {
        ::close(fd);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

 private:
  std::string path_;
  bool created_ = false;
  bool released_ = false;
};

TEST(Server, MicroBatchingPreservesPerRequestResults) {
  // Predicts that queue while the worker is busy run as one batch, and
  // each response still carries exactly its own rows' results.  The worker
  // is held deterministically: a kReload of a FIFO checkpoint blocks it in
  // the file open until the gate opens the FIFO's write end.
  constexpr std::size_t kRequests = 16;
  FifoGate gate("/tmp/pac_serve_test_gate_" + std::to_string(::getpid()) +
                ".fifo");
  ASSERT_TRUE(gate.created()) << std::strerror(errno);
  ServerOptions opts;
  opts.watch_path = gate.path();
  opts.watch_interval_s = 10.0;  // reloads via the explicit kReload only
  opts.max_queue_rows = kRequests;
  ServeFixture f(2, opts);
  const Dataset probe = five_family_dataset(kRequests + 1, 43);
  const PredictOutput offline = predict_batch(f.classification, probe, false);

  // One write: the kReload, K single-row predicts (ids 1..K) and one more
  // (id K+1).  The reader queues the K predicts behind the blocked reload
  // and rejects the (K+1)-th, because K rows fill max_queue_rows.
  constexpr std::int32_t kReloadId = 1000;
  std::vector<std::byte> wire;
  {
    PayloadWriter w;
    w.u8(0);
    append_request(wire, kReloadId, RequestType::kReload, w.bytes());
  }
  for (std::size_t i = 0; i <= kRequests; ++i) {
    PayloadWriter w;
    w.u8(0);
    w.u32(1);
    encode_rows(w, probe, i, i + 1);
    append_request(wire, static_cast<std::int32_t>(i + 1),
                   RequestType::kPredict, w.bytes());
  }
  {
    const mt::Fd fd = mt::connect_to(
        mt::parse_endpoint(f.server.bound_address()), 5.0);
    mt::write_full(fd, wire.data(), wire.size(), "test pipeline");
    const mt::FrameLimits limits{kMaxRequestBytes, false};
    mt::FrameHeader rh;
    std::vector<std::byte> payload;

    // The busy error comes first: the worker is still held, so it proves
    // all K predicts are queued.
    ASSERT_TRUE(mt::read_frame(fd, limits, rh, payload, "test recv"));
    ASSERT_EQ(rh.tag, kErrorTag);
    EXPECT_EQ(rh.source, static_cast<std::int32_t>(kRequests + 1));
    {
      PayloadReader r(payload);
      EXPECT_NE(r.str().find("server busy"), std::string::npos);
    }
    gate.release();

    // The reload fails on the empty FIFO, then one batch answers the K
    // predicts in order.
    ASSERT_TRUE(mt::read_frame(fd, limits, rh, payload, "test recv"));
    EXPECT_EQ(rh.tag, static_cast<std::int32_t>(RequestType::kReload));
    EXPECT_EQ(rh.source, kReloadId);
    for (std::size_t i = 0; i < kRequests; ++i) {
      ASSERT_TRUE(mt::read_frame(fd, limits, rh, payload, "test recv"));
      ASSERT_EQ(rh.tag, static_cast<std::int32_t>(RequestType::kPredict));
      EXPECT_EQ(rh.source, static_cast<std::int32_t>(i + 1));
      PayloadReader r(payload);
      const PredictResponse resp = decode_predict_response(r);
      ASSERT_EQ(resp.labels.size(), 1u);
      EXPECT_EQ(resp.labels[0], offline.labels[i]) << "request " << i + 1;
    }
  }
  f.server.stop();
  const auto& m = f.server.metrics();
  EXPECT_EQ(m.counter_value("serve.batches"), 1u);
  EXPECT_EQ(m.counter_value("serve.requests_predict"), kRequests);
  EXPECT_EQ(m.counter_value("serve.rows_predicted"), kRequests);
  EXPECT_EQ(f.server.busy_rejections(), 1u);
}

TEST(Server, LoneRequestIsNotHeldForABatchWindow) {
  // A request that reaches an idle server runs at once: nothing holds it
  // back waiting for company, so the fastest of 20 sequential round trips
  // stays under 0.5 ms (a 1 ms batch window would put every one above).
  // The model is one normal term, so the round trip times the server's
  // hand-offs rather than the kernel, with room to spare under TSan.
  Dataset train(Schema({Attribute::real("x", 0.01)}), 200);
  Xoshiro256ss rng(53);
  for (std::size_t i = 0; i < train.num_items(); ++i)
    train.set_real(i, 0, (i % 2 == 0 ? 0.0 : 6.0) + normal01(rng));
  const ac::Model model(train, {{ac::TermKind::kSingleNormal, {0}}});
  Server server(model, fit(model), {});
  server.start();
  const Dataset one = train.slice(0, 1);
  Client client(server.bound_address());
  double fastest = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 20; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const PredictResponse resp = client.predict(one, false);
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    ASSERT_EQ(resp.labels.size(), 1u);
    fastest = std::min(fastest, s);
  }
  EXPECT_LT(fastest, 0.5e-3) << "fastest of 20 round trips: "
                             << fastest * 1e6 << " us";
}

TEST(Server, HotReloadUnderLoadKeepsResponsesConsistent) {
  const std::string ckpt =
      "/tmp/pac_serve_test_" + std::to_string(::getpid()) + ".ckpt";
  const Dataset train = five_family_dataset(500, 44);
  const ac::Model model = five_family_model(train);
  const ac::Classification gen1 = fit(model, 2, 1234);
  const ac::Classification gen2 = fit(model, 3, 99);
  {
    std::ofstream out(ckpt);
    ac::save_classification(out, gen1);
  }
  ServerOptions opts;
  opts.watch_path = ckpt;
  opts.watch_interval_s = 10.0;  // reloads via explicit kReload only
  Server server(model, ac::Classification(gen1), opts);
  server.start();

  const Dataset probe = five_family_dataset(64, 45);
  const PredictOutput offline1 = predict_batch(gen1, probe, true);
  const PredictOutput offline2 = predict_batch(gen2, probe, true);

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> gen2_seen{0};
  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      Client client(server.bound_address());
      while (!stop.load()) {
        const PredictResponse resp = client.predict(probe, true);
        const PredictOutput* expect = nullptr;
        if (resp.generation == 1)
          expect = &offline1;
        else if (resp.generation == 2)
          expect = &offline2;
        if (expect == nullptr || resp.labels != expect->labels ||
            std::memcmp(resp.membership.data(), expect->membership.data(),
                        expect->membership.size() * sizeof(double)) != 0)
          mismatches.fetch_add(1);
        if (resp.generation == 2) gen2_seen.fetch_add(1);
      }
    });
  }

  // Let a few generation-1 responses land, then swap the checkpoint and
  // trigger the reload while the clients keep streaming.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  {
    std::ofstream out(ckpt);
    ac::save_classification(out, gen2);
  }
  Client control(server.bound_address());
  const ReloadResponse reload = control.reload();
  EXPECT_TRUE(reload.reloaded) << reload.message;
  EXPECT_EQ(reload.generation, 2u);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  stop.store(true);
  for (auto& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(gen2_seen.load(), 0);
  EXPECT_EQ(server.generation(), 2u);
  ::unlink(ckpt.c_str());
}

TEST(Server, CorruptReloadKeepsServingOldGeneration) {
  const std::string ckpt =
      "/tmp/pac_serve_test_bad_" + std::to_string(::getpid()) + ".ckpt";
  const Dataset train = five_family_dataset(300, 46);
  const ac::Model model = five_family_model(train);
  const ac::Classification gen1 = fit(model);
  {
    std::ofstream out(ckpt);
    out << "pac-classification v1 classes 2 params_per_class GARBAGE\n";
  }
  ServerOptions opts;
  opts.watch_path = ckpt;
  opts.watch_interval_s = 10.0;
  Server server(model, ac::Classification(gen1), opts);
  server.start();

  Client client(server.bound_address());
  const ReloadResponse reload = client.reload();
  EXPECT_FALSE(reload.reloaded);
  EXPECT_EQ(reload.generation, 1u);
  EXPECT_NE(reload.message.find("checkpoint parse error"), std::string::npos);
  EXPECT_EQ(server.reload_failures(), 1u);

  // The old generation still serves, bit-identically.
  const Dataset probe = five_family_dataset(20, 47);
  const PredictOutput offline = predict_batch(gen1, probe, false);
  EXPECT_EQ(client.predict(probe, false).labels, offline.labels);
  ::unlink(ckpt.c_str());
}

TEST(Server, BackpressureRejectsWithBusyError) {
  ServerOptions opts;
  opts.max_queue_rows = 0;  // reject every predict deterministically
  ServeFixture f(2, opts);
  Client client(f.server.bound_address());
  const Dataset probe = five_family_dataset(4, 48);
  try {
    client.predict(probe, false);
    FAIL() << "expected a busy rejection";
  } catch (const ServeError& e) {
    EXPECT_NE(std::string(e.what()).find("server busy"), std::string::npos);
  }
  // Control-plane requests still go through.
  EXPECT_EQ(client.info().generation, 1u);
  f.server.stop();
  EXPECT_EQ(f.server.busy_rejections(), 1u);
}

TEST(Server, AdmissionErrorsFailOneRequestNotTheConnection) {
  ServeFixture f;
  Client client(f.server.bound_address());
  Dataset bad = five_family_dataset(3, 49);
  bad.set_real(0, 4, -1.0);  // violates the lognormal precondition
  try {
    client.predict(bad, false);
    FAIL() << "expected an admission error";
  } catch (const ServeError& e) {
    EXPECT_NE(std::string(e.what()).find("'w'"), std::string::npos);
  }
  // Same connection keeps working.
  const Dataset good = five_family_dataset(3, 50);
  EXPECT_EQ(client.predict(good, false).labels.size(), 3u);
}

std::size_t open_fd_count(const std::string& fd_dir = "/proc/self/fd") {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator(fd_dir))
    ++n;
  return n;
}

TEST(Server, FinishedConnectionsAreReaped) {
  // Sequential clients that connect, ask once and hang up must not leave
  // their server-side fds (or reader threads) behind until stop(): the
  // accept thread reaps finished connections, so at most the last one or
  // two are still held.
  if (!std::filesystem::is_directory("/proc/self/fd"))
    GTEST_SKIP() << "no /proc/self/fd";
  ServeFixture f;
  const std::size_t before = open_fd_count();
  for (int i = 0; i < 200; ++i) {
    Client client(f.server.bound_address());
    EXPECT_EQ(client.info().generation, 1u);
  }
  // Reaping happens when the next connection is accepted, and a reader the
  // scheduler has not run yet has not finished: on a loaded host the last
  // few connections may still be held.  Spaced-out extra clients let the
  // accept thread catch up; without reaping, each one adds an fd instead.
  for (int i = 0; i < 100 && open_fd_count() > before + 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Client client(f.server.bound_address());
    client.info();
  }
  EXPECT_LE(open_fd_count(), before + 2);
}

// ---- a server child process under a lowered RLIMIT_NOFILE ----

/// Set in the environment of a re-exec'd copy of this binary: main() then
/// runs serve_child_main instead of the tests.
constexpr const char* kServeChildEnv = "PAC_SERVE_TEST_CHILD";
/// The child writes its bound address to this fd, then closes it.
constexpr int kChildAddressFd = 3;

/// Child mode: serve the fixture model on an ephemeral port until killed.
[[noreturn]] void serve_child_main() {
  ServeFixture f;
  const std::string& address = f.server.bound_address();
  const bool sent = ::write(kChildAddressFd, address.data(), address.size()) ==
                    static_cast<ssize_t>(address.size());
  ::close(kChildAddressFd);
  if (!sent) std::_Exit(1);
  for (;;) ::pause();
}

/// A server child; SIGKILLed and reaped when it goes out of scope.
struct ServerChild {
  pid_t pid = -1;
  std::string address;

  ServerChild() = default;
  ServerChild(const ServerChild&) = delete;
  ServerChild& operator=(const ServerChild&) = delete;
  ~ServerChild() { kill_and_reap(); }

  void kill_and_reap() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    pid = -1;
  }
};

/// Re-exec this binary as a server child whose RLIMIT_NOFILE is lowered to
/// `max_fds` between fork and exec, and wait for its bound address.
void spawn_server_child(ServerChild& child, rlim_t max_fds) {
  const std::string self = std::filesystem::read_symlink("/proc/self/exe");
  // Everything the child needs is built before the fork: between fork and
  // exec only async-signal-safe calls run.
  std::string self_arg = self;
  std::string mode = std::string(kServeChildEnv) + "=1";
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e) envp.push_back(*e);
  envp.push_back(mode.data());
  envp.push_back(nullptr);
  char* argv[] = {self_arg.data(), nullptr};
  const rlimit limit{max_fds, max_fds};
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  child.pid = ::fork();
  ASSERT_GE(child.pid, 0);
  if (child.pid == 0) {
    if (::dup2(pipe_fds[1], kChildAddressFd) < 0) ::_exit(126);
    // Inherited fds would count against the limit: keep stdio and the
    // address pipe only.
    for (int fd = kChildAddressFd + 1; fd < 1024; ++fd) ::close(fd);
    if (::setrlimit(RLIMIT_NOFILE, &limit) != 0) ::_exit(126);
    ::execve(self.c_str(), argv, envp.data());
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  // Read to EOF, so the child has closed its end before its fds are
  // counted.  It trains the fixture model first.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  char buf[256];
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{pipe_fds[0], POLLIN, 0};
    if (left.count() <= 0 ||
        ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0)
      break;
    const ssize_t n = ::read(pipe_fds[0], buf, sizeof buf);
    if (n <= 0) break;
    child.address.append(buf, static_cast<std::size_t>(n));
  }
  ::close(pipe_fds[0]);
  ASSERT_FALSE(child.address.empty()) << "server child sent no address";
}

TEST(Server, RecoversAfterFdExhaustion) {
  // At its fd limit a server can accept nothing, so it must free the fds
  // of finished connections without waiting for an accept to succeed.
  // Hold more connections than the limit allows, close them all, and a
  // fresh client must be served again with the fds back near the start.
  if (!std::filesystem::is_directory("/proc/self/fd"))
    GTEST_SKIP() << "no /proc/self/fd";
  constexpr rlim_t kMaxFds = 32;
  constexpr int kHeld = 60;
  ServerChild child;
  ASSERT_NO_FATAL_FAILURE(spawn_server_child(child, kMaxFds));
  const std::string fd_dir = "/proc/" + std::to_string(child.pid) + "/fd";
  const std::size_t start = open_fd_count(fd_dir);
  const mt::Endpoint ep = mt::parse_endpoint(child.address);
  {
    std::vector<mt::Fd> held;
    for (int i = 0; i < kHeld; ++i) held.push_back(mt::connect_to(ep, 5.0));
    // The kernel completes every handshake into the listen backlog; the
    // server accepts until its descriptor table is full.
    for (int i = 0; i < 500 && open_fd_count(fd_dir) < kMaxFds; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_EQ(open_fd_count(fd_dir), kMaxFds);
  }  // every held connection closes here

  // Client has no read timeout: probe under a deadline, and on expiry kill
  // the child, which fails the probe's read instead of hanging the test.
  auto probe = std::async(std::launch::async, [&child] {
    Client client(child.address, 5.0);
    return client.info().generation;
  });
  if (probe.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
    child.kill_and_reap();
    ADD_FAILURE() << "a fresh client was not served within 5 s of the held "
                     "connections closing";
    try {
      probe.get();
    } catch (const std::exception&) {
    }
    return;
  }
  EXPECT_EQ(probe.get(), 1u);
  // The server drains its backlog of closed connections in a burst, and
  // reaps on its next accept: readers still running at the last accept
  // keep their fds until then.  Spaced-out connections that close at once
  // let it catch up, as in FinishedConnectionsAreReaped.
  for (int i = 0; i < 100 && open_fd_count(fd_dir) > start + 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    mt::connect_to(ep, 5.0);
  }
  EXPECT_LE(open_fd_count(fd_dir), start + 4);
}

TEST(Server, StatsExposeLatencyHistogramAndGeneration) {
  ServeFixture f;
  Client client(f.server.bound_address());
  const Dataset probe = five_family_dataset(10, 51);
  client.predict(probe, false);
  const std::string stats = client.stats_text();
  EXPECT_NE(stats.find("serve.request_seconds"), std::string::npos);
  EXPECT_NE(stats.find("serve.batch_rows"), std::string::npos);
  EXPECT_NE(stats.find("generation 1"), std::string::npos);
}

TEST(Server, MalformedBodiesGetTypedErrorsGarbageFramesDropConnection) {
  ServeFixture f;
  const mt::Endpoint ep = mt::parse_endpoint(f.server.bound_address());
  const mt::FrameLimits limits{kMaxRequestBytes, false};

  // Unknown tag: error response, connection stays up.
  {
    const mt::Fd fd = mt::connect_to(ep, 5.0);
    mt::FrameHeader h;
    h.context = kProtocolVersion;
    h.source = 7;
    h.tag = 99;
    const std::byte body[1]{};
    h.nbytes = 1;
    mt::write_frame(fd, h, body, 1, limits, "test send");
    mt::FrameHeader rh;
    std::vector<std::byte> payload;
    ASSERT_TRUE(mt::read_frame(fd, limits, rh, payload, "test recv"));
    EXPECT_EQ(rh.tag, kErrorTag);
    EXPECT_EQ(rh.source, 7);

    // Wrong protocol version: still an error response, not a hang.
    h.context = kProtocolVersion + 5;
    h.source = 8;
    h.tag = static_cast<std::int32_t>(RequestType::kInfo);
    mt::write_frame(fd, h, body, 1, limits, "test send");
    ASSERT_TRUE(mt::read_frame(fd, limits, rh, payload, "test recv"));
    EXPECT_EQ(rh.tag, kErrorTag);
    EXPECT_EQ(rh.source, 8);

    // Truncated predict body (claims 5 rows, carries none).
    PayloadWriter w;
    w.u8(0);
    w.u32(5);
    h.context = kProtocolVersion;
    h.source = 9;
    h.tag = static_cast<std::int32_t>(RequestType::kPredict);
    h.nbytes = w.bytes().size();
    mt::write_frame(fd, h, w.bytes().data(), w.bytes().size(), limits,
                    "test send");
    ASSERT_TRUE(mt::read_frame(fd, limits, rh, payload, "test recv"));
    EXPECT_EQ(rh.tag, kErrorTag);
    EXPECT_EQ(rh.source, 9);
  }

  // A garbage stream (bad magic) gets the connection dropped, and the
  // server survives to serve the next client.
  {
    const mt::Fd fd = mt::connect_to(ep, 5.0);
    std::uint64_t junk[16];
    for (std::size_t i = 0; i < 16; ++i)
      junk[i] = 0xDEADBEEFCAFEF00DULL + i;
    mt::write_full(fd, junk, sizeof(junk), "test junk");
    mt::FrameHeader rh;
    std::vector<std::byte> payload;
    bool closed = false;
    try {
      closed = !mt::read_frame(fd, limits, rh, payload, "test recv");
    } catch (const mp::TransportError&) {
      closed = true;  // reset racing the close is equally fine
    }
    EXPECT_TRUE(closed);
  }
  Client client(f.server.bound_address());
  EXPECT_EQ(client.info().generation, 1u);
}

// ---- histogram quantiles (serve latency reporting) ----

TEST(HistogramQuantile, EmptyHistogramHasNoQuantile) {
  // An empty histogram must not report a (fake) 0-second latency: serve
  // stats and bench_diff treat NaN as "not measured".
  metrics::Histogram h;
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
  EXPECT_TRUE(std::isnan(h.quantile(0.0)));
  EXPECT_TRUE(std::isnan(h.quantile(1.0)));
}

TEST(HistogramQuantile, InterpolatesWithinObservedRange) {
  metrics::Histogram h;
  EXPECT_TRUE(std::isnan(h.quantile(0.5)));
  for (int i = 0; i < 1000; ++i)
    h.observe(1e-3);  // all samples in one bucket
  const double p50 = h.quantile(0.5);
  EXPECT_EQ(p50, 1e-3);  // clamped to [min, max]
  h.observe(1.0);
  EXPECT_LE(h.quantile(0.999), 1.0);
  EXPECT_GE(h.quantile(0.999), 1e-3);
  EXPECT_EQ(h.quantile(1.0), 1.0);
}

TEST(HistogramQuantile, OrderedAcrossProbabilities) {
  metrics::Histogram h;
  Xoshiro256ss rng(7);
  for (int i = 0; i < 5000; ++i) {
    const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    h.observe(1e-4 * std::exp(4.0 * u));
  }
  double last = 0.0;
  for (const double q : {0.1, 0.5, 0.9, 0.99, 1.0}) {
    const double v = h.quantile(q);
    EXPECT_GE(v, last);
    EXPECT_GE(v, h.min());
    EXPECT_LE(v, h.max());
    last = v;
  }
}

}  // namespace
}  // namespace pac::serve

int main(int argc, char** argv) {
  if (std::getenv(pac::serve::kServeChildEnv) != nullptr)
    pac::serve::serve_child_main();
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
