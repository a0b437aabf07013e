// Tests for Table, CLI parsing, error macros, the thread pool, and the
// logger.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace pac {
namespace {

// ---- Table ----

TEST(Table, PrintsHeaderAndRows) {
  Table t("demo");
  t.set_header({"x", "a", "b"});
  t.add_row({"1", "10", "20"});
  t.add_row({"2", "30", "40"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("10"), std::string::npos);
  EXPECT_NE(out.find("40"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsMismatchedRowWidth) {
  Table t("demo");
  t.set_header({"x", "y"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, AlignsColumns) {
  Table t("demo");
  t.set_header({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"long-name", "22222"});
  std::ostringstream os;
  t.print(os);
  // Each data line must be equally long (aligned columns).
  std::istringstream is(os.str());
  std::string line;
  std::getline(is, line);  // title
  std::getline(is, line);  // header
  const std::size_t width = line.size();
  std::getline(is, line);  // rule
  while (std::getline(is, line)) {
    if (!line.empty()) {
      EXPECT_EQ(line.size(), width);
    }
  }
}

TEST(FormatHms, FormatsPaperStyle) {
  EXPECT_EQ(format_hms(0.0), "0.00.00");
  EXPECT_EQ(format_hms(61.0), "0.01.01");
  EXPECT_EQ(format_hms(3661.0), "1.01.01");
  EXPECT_EQ(format_hms(10 * 3600 + 59 * 60 + 59), "10.59.59");
}

TEST(FormatHms, RoundsToNearestSecond) {
  EXPECT_EQ(format_hms(59.6), "0.01.00");
  EXPECT_EQ(format_hms(0.4), "0.00.00");
}

TEST(FormatHms, RejectsNegative) { EXPECT_THROW(format_hms(-1.0), Error); }

TEST(FormatFixed, HonorsDigits) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_fixed(-0.5, 3), "-0.500");
}

// ---- CLI ----

Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesSpaceSeparatedValues) {
  const Cli cli = make_cli({"--items", "5000", "--name", "meiko"});
  EXPECT_EQ(cli.get_int("items", 0), 5000);
  EXPECT_EQ(cli.get_string("name", ""), "meiko");
}

TEST(Cli, ParsesEqualsForm) {
  const Cli cli = make_cli({"--items=123", "--ratio=0.5"});
  EXPECT_EQ(cli.get_int("items", 0), 123);
  EXPECT_DOUBLE_EQ(cli.get_double("ratio", 0.0), 0.5);
}

TEST(Cli, BareFlagIsTrueBoolean) {
  const Cli cli = make_cli({"--verbose"});
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("quiet"));
}

TEST(Cli, BooleanSpellings) {
  EXPECT_TRUE(make_cli({"--x", "yes"}).get_bool("x", false));
  EXPECT_TRUE(make_cli({"--x", "on"}).get_bool("x", false));
  EXPECT_FALSE(make_cli({"--x", "0"}).get_bool("x", true));
  EXPECT_FALSE(make_cli({"--x", "off"}).get_bool("x", true));
}

TEST(Cli, DefaultsWhenAbsent) {
  const Cli cli = make_cli({});
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_EQ(cli.get_string("s", "d"), "d");
  EXPECT_DOUBLE_EQ(cli.get_double("d", 1.5), 1.5);
  EXPECT_TRUE(cli.get_bool("b", true));
}

TEST(Cli, ParsesIntLists) {
  const Cli cli = make_cli({"--sizes", "5000,10000,25000"});
  const auto sizes = cli.get_int_list("sizes", {});
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 5000);
  EXPECT_EQ(sizes[2], 25000);
}

TEST(Cli, IntListDefault) {
  const Cli cli = make_cli({});
  const auto v = cli.get_int_list("sizes", {1, 2});
  ASSERT_EQ(v.size(), 2u);
}

TEST(Cli, RejectsMalformedNumbers) {
  const Cli cli = make_cli({"--n", "12x", "--d", "zz", "--b", "maybe",
                            "--list", "1,two"});
  EXPECT_THROW(cli.get_int("n", 0), Error);
  EXPECT_THROW(cli.get_double("d", 0.0), Error);
  EXPECT_THROW(cli.get_bool("b", false), Error);
  EXPECT_THROW(cli.get_int_list("list", {}), Error);
}

TEST(Cli, CollectsPositionalArguments) {
  const Cli cli = make_cli({"file1.db2", "--n", "3", "file2.db2"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "file1.db2");
  EXPECT_EQ(cli.positional()[1], "file2.db2");
}

TEST(Cli, NegativeValueAfterFlag) {
  // "-5" does not start with "--", so it is consumed as the value.
  const Cli cli = make_cli({"--offset", "-5"});
  EXPECT_EQ(cli.get_int("offset", 0), -5);
}

TEST(Cli, UnknownFlagsNamedInBothForms) {
  const Cli cli = make_cli({"--max-batch", "64", "--max-queue=1",
                            "--watch", "--max-batchh", "8"});
  // "--name=value" and "--name value" are both checked; names come back in
  // name order.
  EXPECT_EQ(cli.unknown_flags({"max-batch", "watch"}),
            (std::vector<std::string>{"max-batchh", "max-queue"}));
  EXPECT_TRUE(
      cli.unknown_flags({"max-batch", "max-batchh", "max-queue", "watch"})
          .empty());
  EXPECT_TRUE(make_cli({"file.db2"}).unknown_flags({}).empty());
}

// ---- error macros ----

TEST(ErrorMacros, CheckThrowsWithLocation) {
  try {
    PAC_CHECK(1 == 2);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("test_util_misc.cpp"), std::string::npos);
  }
}

TEST(ErrorMacros, MessageIsStreamed) {
  try {
    const int n = 42;
    PAC_REQUIRE_MSG(n < 10, "n was " << n);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("n was 42"), std::string::npos);
  }
}

TEST(ErrorMacros, PassingChecksAreSilent) {
  EXPECT_NO_THROW(PAC_CHECK(true));
  EXPECT_NO_THROW(PAC_REQUIRE(2 + 2 == 4));
}

// ---- thread pool ----

TEST(ThreadPool, RunCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4u);
  constexpr std::size_t kCount = 500;
  std::vector<std::atomic<int>> hits(kCount);
  pool.run(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  // One pool serves many job generations (the EM loop submits two jobs per
  // cycle for hundreds of cycles).
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.run(17, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
    EXPECT_EQ(sum.load(), 17 * 16 / 2);
  }
}

TEST(ThreadPool, RunSlottedNeverSharesASlotBetweenRunningIndices) {
  // The E-step hands each slot its own scratch block, so two indices
  // running at once must never see the same slot.
  ThreadPool pool(4);
  constexpr std::size_t kCount = 2000;
  std::vector<std::atomic<int>> busy(pool.threads());
  std::vector<std::atomic<int>> hits(kCount);
  std::atomic<int> clashes{0};
  std::atomic<int> out_of_range{0};
  pool.run_slotted(kCount, [&](std::size_t i, std::size_t slot) {
    if (slot >= pool.threads()) {
      out_of_range.fetch_add(1);
      return;
    }
    if (busy[slot].exchange(1) != 0) clashes.fetch_add(1);
    hits[i].fetch_add(1);
    busy[slot].store(0);
  });
  EXPECT_EQ(out_of_range.load(), 0);
  EXPECT_EQ(clashes.load(), 0);
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, TaskErrorsRethrowLowestIndexAfterJoin) {
  // Index 0 throws at once, most likely on the calling thread, while the
  // workers are still busy with later indices; a later index throws too.
  // Every index must still run, the job must be joined before the error
  // leaves run(), and the error must be index 0's whichever thread ran it.
  // The single-thread pool's inline loop follows the same rule.
  for (const std::size_t threads : {std::size_t{4}, std::size_t{1}}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    constexpr std::size_t kCount = 64;
    std::vector<std::atomic<int>> hits(kCount);
    try {
      pool.run(kCount, [&](std::size_t i) {
        hits[i].fetch_add(1);
        if (i == 0) throw std::runtime_error("index 0");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        if (i == 37) throw std::runtime_error("index 37");
      });
      ADD_FAILURE() << "no error left run()";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 0");
    }
    for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
    // The error is consumed: the next job runs clean.
    std::atomic<int> calls{0};
    EXPECT_NO_THROW(pool.run(9, [&](std::size_t) { calls.fetch_add(1); }));
    EXPECT_EQ(calls.load(), 9);
  }
}

TEST(ThreadPool, DegenerateShapes) {
  ThreadPool one(1);  // no OS threads: run() is a plain loop
  EXPECT_EQ(one.threads(), 1u);
  std::atomic<int> calls{0};
  one.run(5, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 5);
  ThreadPool wide(8);  // more threads than work
  calls.store(0);
  wide.run(2, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 2);
  wide.run(0, [&](std::size_t) { calls.fetch_add(1); });  // no-op
  EXPECT_EQ(calls.load(), 2);
  ThreadPool zero(0);  // clamped to 1
  EXPECT_EQ(zero.threads(), 1u);
}

TEST(ThreadPool, ResolveExplicitAndEnv) {
  // An explicit request wins over the environment.
  setenv("PAC_EM_THREADS", "7", 1);
  EXPECT_EQ(ThreadPool::resolve(3), 3u);
  // 0 = read PAC_EM_THREADS.
  EXPECT_EQ(ThreadPool::resolve(0), 7u);
  // Unset / empty / garbage / non-positive all fall back to 1.
  unsetenv("PAC_EM_THREADS");
  EXPECT_EQ(ThreadPool::resolve(0), 1u);
  setenv("PAC_EM_THREADS", "", 1);
  EXPECT_EQ(ThreadPool::resolve(0), 1u);
  setenv("PAC_EM_THREADS", "two", 1);
  EXPECT_EQ(ThreadPool::resolve(0), 1u);
  setenv("PAC_EM_THREADS", "4x", 1);
  EXPECT_EQ(ThreadPool::resolve(0), 1u);
  setenv("PAC_EM_THREADS", "0", 1);
  EXPECT_EQ(ThreadPool::resolve(0), 1u);
  setenv("PAC_EM_THREADS", "-2", 1);
  EXPECT_EQ(ThreadPool::resolve(0), 1u);
  // Huge values clamp instead of exploding.
  setenv("PAC_EM_THREADS", "100000", 1);
  EXPECT_EQ(ThreadPool::resolve(0), ThreadPool::kMaxThreads);
  EXPECT_EQ(ThreadPool::resolve(1 << 20), ThreadPool::kMaxThreads);
  unsetenv("PAC_EM_THREADS");
}

// ---- logger ----

TEST(Log, LevelFiltering) {
  const LogLevel old = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below threshold: must not crash and must be filtered (no observable
  // output channel to assert on; this exercises the path).
  PAC_LOG_DEBUG << "dropped";
  PAC_LOG_INFO << "dropped too";
  set_log_level(old);
}

}  // namespace
}  // namespace pac
