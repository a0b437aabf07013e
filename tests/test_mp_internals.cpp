// Direct unit tests for the minimpi Mailbox, exercised without a World:
// matching, wildcard and abort semantics.  Every message, collective
// frames included, passes through a Mailbox on the in-process backend;
// collective behaviour and timing are covered through Comm in
// test_mp_collectives and test_mp_time.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "mp/mailbox.hpp"

namespace pac::mp {
namespace {

Message make_message(int context, int source, int tag,
                     std::vector<std::byte> payload = {}) {
  Message m;
  m.context = context;
  m.source = source;
  m.tag = tag;
  m.payload = std::move(payload);
  return m;
}

TEST(Mailbox, MatchesContextSourceAndTag) {
  Mailbox box;
  box.push(make_message(0, 1, 10));
  box.push(make_message(1, 1, 10));  // different context
  box.push(make_message(0, 2, 10));  // different source
  Message out;
  ASSERT_TRUE(box.try_pop(0, 2, 10, out));
  EXPECT_EQ(out.source, 2);
  ASSERT_TRUE(box.try_pop(1, 1, 10, out));
  EXPECT_EQ(out.context, 1);
  EXPECT_EQ(box.pending(), 1u);
}

TEST(Mailbox, WildcardsTakeEarliestMatch) {
  Mailbox box;
  box.push(make_message(0, 3, 7));
  box.push(make_message(0, 1, 9));
  Message out;
  ASSERT_TRUE(box.try_pop(0, kAnySource, kAnyTag, out));
  EXPECT_EQ(out.source, 3);  // arrival order, not source order
  EXPECT_EQ(out.tag, 7);
}

TEST(Mailbox, TryPopReturnsFalseWhenNoMatch) {
  Mailbox box;
  box.push(make_message(0, 1, 5));
  Message out;
  EXPECT_FALSE(box.try_pop(0, 1, 6, out));
  EXPECT_FALSE(box.try_pop(0, 2, 5, out));
  EXPECT_FALSE(box.try_pop(9, 1, 5, out));
  EXPECT_EQ(box.pending(), 1u);
}

TEST(Mailbox, BlockingPopWakesOnPush) {
  Mailbox box;
  std::atomic<bool> got{false};
  std::thread receiver([&] {
    const Message m = box.pop(0, 4, 2);
    EXPECT_EQ(m.payload.size(), 3u);
    got = true;
  });
  // Push a non-matching message first, then the matching one.
  box.push(make_message(0, 4, 1));
  box.push(make_message(0, 4, 2, std::vector<std::byte>(3)));
  receiver.join();
  EXPECT_TRUE(got.load());
  EXPECT_EQ(box.pending(), 1u);  // the non-matching one remains
}

TEST(Mailbox, AbortWakesBlockedPop) {
  Mailbox box;
  std::atomic<bool> aborted{false};
  std::thread receiver([&] {
    try {
      (void)box.pop(0, 0, 0);
    } catch (const Aborted&) {
      aborted = true;
    }
  });
  box.abort();
  receiver.join();
  EXPECT_TRUE(aborted.load());
  // After reset the mailbox works again.
  box.reset();
  box.push(make_message(0, 0, 0));
  Message out;
  EXPECT_TRUE(box.try_pop(0, 0, 0, out));
}

TEST(Mailbox, PeekDoesNotConsume) {
  Mailbox box;
  box.push(make_message(0, 5, 8, std::vector<std::byte>(16)));
  int source = -1, tag = -1;
  std::size_t bytes = 0;
  ASSERT_TRUE(box.try_peek(0, kAnySource, kAnyTag, source, tag, bytes));
  EXPECT_EQ(source, 5);
  EXPECT_EQ(tag, 8);
  EXPECT_EQ(bytes, 16u);
  EXPECT_EQ(box.pending(), 1u);
}

}  // namespace
}  // namespace pac::mp
