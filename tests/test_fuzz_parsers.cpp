// Robustness ("fuzz-ish") tests: every parser in the repo must respond to
// malformed input with a pac::Error — never a crash, hang, or silent
// garbage acceptance.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "autoclass/checkpoint.hpp"
#include "autoclass/search.hpp"
#include "data/io.hpp"
#include "data/synth.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace pac {
namespace {

/// Random printable garbage of a given length.
std::string garbage(std::uint64_t seed, std::size_t length) {
  Xoshiro256ss rng(seed);
  std::string out;
  out.reserve(length);
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789 .,-?#\n\t";
  for (std::size_t i = 0; i < length; ++i)
    out.push_back(alphabet[uniform_index(rng, alphabet.size())]);
  return out;
}

/// Truncate a valid document at a random point.
std::string truncate_at(const std::string& valid, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  const std::size_t cut = 1 + uniform_index(rng, valid.size() - 1);
  return valid.substr(0, cut);
}

class FuzzSeed : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeed, HeaderParserNeverCrashes) {
  const std::uint64_t seed = GetParam();
  for (std::size_t length : {1u, 16u, 256u, 4096u}) {
    std::istringstream in(garbage(seed * 31 + length, length));
    try {
      (void)data::read_header(in);
    } catch (const Error&) {
      // expected for almost all inputs
    }
  }
}

TEST_P(FuzzSeed, DataParserNeverCrashes) {
  const std::uint64_t seed = GetParam();
  const data::Schema schema({data::Attribute::real("x", 0.1),
                             data::Attribute::discrete("c", 3)});
  for (std::size_t length : {1u, 64u, 1024u}) {
    std::istringstream in(garbage(seed * 37 + length, length));
    try {
      (void)data::read_data(in, schema);
    } catch (const Error&) {
    }
  }
}

TEST_P(FuzzSeed, CheckpointParserNeverCrashes) {
  const std::uint64_t seed = GetParam();
  const data::LabeledDataset ld = data::paper_dataset(30, 1);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  for (std::size_t length : {8u, 128u, 2048u}) {
    std::istringstream in(garbage(seed * 41 + length, length));
    try {
      (void)ac::load_classification(in, model);
    } catch (const Error&) {
    }
    std::istringstream in2(garbage(seed * 43 + length, length));
    try {
      (void)ac::load_search_result(in2, model);
    } catch (const Error&) {
    }
  }
}

TEST_P(FuzzSeed, TruncatedCheckpointAlwaysThrows) {
  const std::uint64_t seed = GetParam();
  const data::LabeledDataset ld = data::paper_dataset(60, 2);
  const ac::Model model = ac::Model::default_model(ld.dataset);
  ac::SearchConfig config;
  config.start_j_list = {2};
  config.max_tries = 1;
  config.em.max_cycles = 8;
  const ac::SearchResult result = ac::sequential_search(model, config);
  std::ostringstream os;
  ac::save_search_result(os, result);
  const std::string valid = os.str();
  for (int variant = 0; variant < 5; ++variant) {
    std::istringstream in(truncate_at(valid, seed * 100 + variant));
    EXPECT_THROW((void)ac::load_search_result(in, model), Error);
  }
}

TEST_P(FuzzSeed, MutatedHeaderEitherParsesOrThrows) {
  const std::uint64_t seed = GetParam();
  std::string valid =
      "real height error 0.5\ndiscrete color range 4\nreal weight\n";
  Xoshiro256ss rng(seed);
  // Flip a handful of characters; the result must parse or throw cleanly.
  for (int round = 0; round < 20; ++round) {
    std::string mutated = valid;
    const std::size_t pos = uniform_index(rng, mutated.size());
    mutated[pos] = static_cast<char>('0' + uniform_index(rng, 75));
    std::istringstream in(mutated);
    try {
      const data::Schema schema = data::read_header(in);
      EXPECT_GE(schema.size(), 1u);  // if it parsed, it is structurally sane
    } catch (const Error&) {
    }
  }
}

/// A registry blob of the shape World finalize ships between processes.
std::string registry_blob() {
  metrics::Registry reg;
  reg.counter("mp.allreduce.calls").add(860);
  reg.counter("mp.send.bytes").add(4096);
  reg.counter("mp.recv.calls");
  for (const double v : {1e-6, 2e-5, 0.003, 0.5})
    reg.histogram("mp.allreduce.seconds").observe(v);
  reg.histogram("mp.recv.seconds");
  return metrics::encode(reg);
}

TEST_P(FuzzSeed, RegistryBlobGarbageNeverCrashes) {
  // The decoder reads bytes from other processes: random bytes, random
  // bytes behind a valid prefix, and a valid blob with flipped bytes must
  // each decode or throw pac::Error, never crash or allocate wildly.
  const std::uint64_t seed = GetParam();
  Xoshiro256ss rng(seed * 53);
  const std::string valid = registry_blob();
  const auto random_bytes = [&](std::size_t n) {
    std::string out(n, '\0');
    for (char& c : out) c = static_cast<char>(uniform_index(rng, 256));
    return out;
  };
  std::vector<std::string> inputs;
  for (const std::size_t length : {1u, 12u, 64u, 4096u}) {
    inputs.push_back(random_bytes(length));
    inputs.push_back(valid.substr(0, 4 + uniform_index(rng, 24)) +
                     random_bytes(length));
  }
  for (int round = 0; round < 40; ++round) {
    std::string mutated = valid;
    for (int flip = 0; flip < 3; ++flip)
      mutated[uniform_index(rng, mutated.size())] =
          static_cast<char>(uniform_index(rng, 256));
    inputs.push_back(std::move(mutated));
  }
  for (const std::string& input : inputs) {
    try {
      (void)metrics::decode(input);
    } catch (const Error&) {
    }
  }
}

TEST_P(FuzzSeed, TruncatedRegistryBlobAlwaysThrows) {
  const std::uint64_t seed = GetParam();
  const std::string valid = registry_blob();
  ASSERT_NO_THROW((void)metrics::decode(valid));
  EXPECT_THROW((void)metrics::decode(std::string_view()), Error);
  for (int variant = 0; variant < 20; ++variant)
    EXPECT_THROW(
        (void)metrics::decode(truncate_at(valid, seed * 100 + variant)),
        Error);
  EXPECT_THROW((void)metrics::decode(valid + '\0'), Error);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeed,
                         ::testing::Values(11u, 23u, 47u, 89u, 131u));

}  // namespace
}  // namespace pac
