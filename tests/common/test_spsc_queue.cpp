// SpscQueue (common/spsc_queue.hpp): the bounded lock-free ring under the
// adaptation trainer and the sharded ingest pump. Contracts under test:
// strict FIFO across index wraparound at any capacity, bounded memory (a
// full queue blocks the producer, counted), close() semantics (pending
// items stay poppable, blocked threads wake, late pushes drop), try_push
// backpressure accounting, a try_pop that never waits, exact Stats, slot
// reuse that never leaks a previous item's bytes, move-only payloads, and
// producer/consumer stress loops that the TSan and ASan/UBSan CI legs
// exercise.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/spsc_queue.hpp"
#include "ics/link_mux.hpp"

namespace mlad {
namespace {

TEST(SpscQueue, ZeroCapacityIsRejected) {
  EXPECT_THROW(SpscQueue<int>(0), std::invalid_argument);
}

TEST(SpscQueue, FifoWithinCapacity) {
  SpscQueue<int> q(8);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.capacity(), 8u);
  for (int i = 0; i < 5; ++i) q.push(i);
  EXPECT_EQ(q.size(), 5u);
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_TRUE(q.empty());
}

TEST(SpscQueue, TryPushRejectsWhenFullAndCounts) {
  SpscQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_FALSE(q.try_push(4));
  const auto stats = q.stats();
  EXPECT_EQ(stats.pushes, 2u);
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.peak_depth, 2u);
  int out = 0;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.try_push(5));  // room again
}

TEST(SpscQueue, FullQueueBlocksProducerUntilPop) {
  SpscQueue<int> q(1);
  q.push(1);
  std::atomic<bool> second_accepted{false};
  std::thread producer([&] {
    q.push(2);  // blocks until the consumer pops
    second_accepted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_accepted);
  int out = 0;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  producer.join();
  EXPECT_TRUE(second_accepted);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);
  EXPECT_GE(q.stats().producer_blocks, 1u);
}

TEST(SpscQueue, PopBlocksUntilPush) {
  SpscQueue<std::string> q(4);
  std::string out;
  std::thread consumer([&] { ASSERT_TRUE(q.pop(out)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.push("hello");
  consumer.join();
  EXPECT_EQ(out, "hello");
}

TEST(SpscQueue, CloseWakesBlockedConsumer) {
  SpscQueue<int> q(4);
  std::atomic<bool> returned_false{false};
  std::thread consumer([&] {
    int out = 0;
    returned_false = !q.pop(out);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(returned_false);
  q.close();
  consumer.join();
  EXPECT_TRUE(returned_false);
}

TEST(SpscQueue, CloseWakesBlockedProducerAndDropsItsItem) {
  SpscQueue<int> q(1);
  q.push(1);
  std::thread producer([&] { q.push(2); });  // blocked: queue is full
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  producer.join();  // woke without enqueueing
  int out = 0;
  ASSERT_TRUE(q.pop(out));  // pending item survives close
  EXPECT_EQ(out, 1);
  EXPECT_FALSE(q.pop(out));  // closed and drained
  EXPECT_EQ(q.stats().pushes, 1u);
}

TEST(SpscQueue, CloseIsIdempotentAndRejectsLatePushes) {
  SpscQueue<int> q(4);
  q.push(7);
  q.close();
  q.close();
  q.push(8);                  // silently dropped
  EXPECT_FALSE(q.try_push(9));
  EXPECT_TRUE(q.closed());
  int out = 0;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(q.pop(out));
  EXPECT_FALSE(q.pop(out));  // stays false once drained
  const auto stats = q.stats();
  EXPECT_EQ(stats.pushes, 1u);
  EXPECT_EQ(stats.pops, 1u);
}

TEST(SpscQueue, PopForTimesOutItemsAndCloses) {
  SpscQueue<int> q(4);
  int out = -1;

  // Empty + open: times out (quickly) without touching `out`.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(q.pop_for(out, 20), SpscQueue<int>::PopResult::kTimeout);
  const auto waited = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  EXPECT_GE(waited, 15.0);
  EXPECT_EQ(out, -1);

  // Item available: returned immediately, FIFO, counted like pop().
  q.push(1);
  q.push(2);
  EXPECT_EQ(q.pop_for(out, 1000), SpscQueue<int>::PopResult::kItem);
  EXPECT_EQ(out, 1);

  // Closed with items pending: still kItem until drained, then kClosed.
  q.close();
  EXPECT_EQ(q.pop_for(out, 1000), SpscQueue<int>::PopResult::kItem);
  EXPECT_EQ(out, 2);
  EXPECT_EQ(q.pop_for(out, 1000), SpscQueue<int>::PopResult::kClosed);
  EXPECT_EQ(q.stats().pops, 2u);
}

TEST(SpscQueue, TryPopNeverWaits) {
  SpscQueue<int> q(4);
  int out = -1;

  // Empty + open: false at once, `out` untouched, nothing counted.
  EXPECT_FALSE(q.try_pop(out));
  EXPECT_EQ(out, -1);

  // Items: FIFO, counted like pop(), across the ring's wraparound.
  for (int round = 0; round < 3; ++round) {
    q.push(10 * round);
    q.push(10 * round + 1);
    q.push(10 * round + 2);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(q.try_pop(out));
      EXPECT_EQ(out, 10 * round + i);
    }
    EXPECT_FALSE(q.try_pop(out));
  }
  EXPECT_EQ(q.stats().pops, 9u);

  // Closed with items pending: they stay poppable; closed AND drained is
  // false again, and a blocking pop then reports the end.
  q.push(7);
  q.close();
  ASSERT_TRUE(q.try_pop(out));
  EXPECT_EQ(out, 7);
  EXPECT_FALSE(q.try_pop(out));
  EXPECT_FALSE(q.pop(out));
  EXPECT_FALSE(q.try_pop(out));
  EXPECT_EQ(out, 7);
  EXPECT_EQ(q.stats().pops, 10u);
}

TEST(SpscQueue, PopForWakesOnPushAndOnClose) {
  SpscQueue<int> q(4);
  // A blocked timed pop is woken early by a push...
  std::thread consumer([&] {
    int out = 0;
    EXPECT_EQ(q.pop_for(out, 10000), SpscQueue<int>::PopResult::kItem);
    EXPECT_EQ(out, 42);
    // ...and by a close.
    EXPECT_EQ(q.pop_for(out, 10000), SpscQueue<int>::PopResult::kClosed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.push(42);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  consumer.join();
}

// The CI TSan job runs this suite: a tight producer/consumer loop through
// a tiny queue maximizes handoff and blocking transitions.
TEST(SpscQueue, StressPreservesOrderAndLosesNothing) {
  constexpr int kItems = 50000;
  SpscQueue<int> q(8);
  std::vector<int> received;
  received.reserve(kItems);
  std::thread consumer([&] {
    int out = 0;
    while (q.pop(out)) received.push_back(out);
  });
  for (int i = 0; i < kItems; ++i) q.push(i);
  q.close();
  consumer.join();

  ASSERT_EQ(received.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) {
    ASSERT_EQ(received[static_cast<std::size_t>(i)], i) << "order broken";
  }
  const auto stats = q.stats();
  EXPECT_EQ(stats.pushes, static_cast<std::uint64_t>(kItems));
  EXPECT_EQ(stats.pops, static_cast<std::uint64_t>(kItems));
  EXPECT_LE(stats.peak_depth, 8u);
  // With capacity 8 and a consumer that also does vector work, the
  // producer must have hit the full queue at least once.
  EXPECT_GE(stats.producer_blocks, 1u);
}

// Close arriving concurrently with a producer mid-push and a consumer
// mid-pop (the serve shutdown path: the pump closes the shard queues while
// the shard threads drain them). Run several rounds with the close landing
// at varying depths; TSan verifies the handoff, the asserts verify no item
// is ever duplicated, reordered, or popped after kClosed.
TEST(SpscQueue, StressCloseDuringPushIsCleanAtEveryDepth) {
  for (int round = 0; round < 50; ++round) {
    SpscQueue<int> q(4);
    std::vector<int> received;
    std::thread producer([&] {
      for (int i = 0; i < 1000; ++i) q.push(i);  // close() cuts this short
    });
    std::thread consumer([&] {
      int out = 0;
      for (;;) {
        const auto res = q.pop_for(out, 1);
        if (res == SpscQueue<int>::PopResult::kClosed) break;
        if (res == SpscQueue<int>::PopResult::kItem) received.push_back(out);
      }
      // kClosed is terminal: both pop flavours must agree from now on.
      EXPECT_FALSE(q.pop(out));
      EXPECT_EQ(q.pop_for(out, 1), SpscQueue<int>::PopResult::kClosed);
    });
    std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
    q.close();
    producer.join();
    consumer.join();

    // Whatever was received is a strict prefix-order subsequence: pushes
    // after the close dropped, but nothing reordered or duplicated.
    for (std::size_t i = 0; i < received.size(); ++i) {
      ASSERT_EQ(received[i], static_cast<int>(i)) << "round " << round;
    }
    const auto stats = q.stats();
    EXPECT_EQ(stats.pops, received.size());
    EXPECT_GE(stats.pushes, stats.pops);
  }
}

TEST(SpscQueue, WrapsAroundAtAnyCapacity) {
  for (const std::size_t cap : {1u, 3u, 7u, 4096u}) {
    // Single-threaded: every burst length 1..cap, so each index crosses
    // the wrap point at every depth.
    SpscQueue<std::uint64_t> q(cap);
    std::uint64_t next_in = 0;
    std::uint64_t next_out = 0;
    for (std::size_t burst = 0; next_in < 11 * cap; ++burst) {
      const std::size_t k = 1 + burst % cap;
      for (std::size_t i = 0; i < k; ++i) q.push(next_in++);
      EXPECT_EQ(q.size(), k);
      std::uint64_t out = 0;
      for (std::size_t i = 0; i < k; ++i) {
        ASSERT_TRUE(q.pop(out));
        ASSERT_EQ(out, next_out++) << "capacity " << cap;
      }
    }
    EXPECT_TRUE(q.empty());

    // Two threads, more than 10x capacity items.
    const std::uint64_t n = 10 * cap + 1000;
    SpscQueue<std::uint64_t> shared(cap);
    std::thread producer([&] {
      for (std::uint64_t i = 0; i < n; ++i) shared.push(i);
      shared.close();
    });
    std::uint64_t expect = 0;
    std::uint64_t out = 0;
    while (shared.pop(out)) {
      ASSERT_EQ(out, expect++) << "capacity " << cap;
    }
    producer.join();
    EXPECT_EQ(expect, n) << "capacity " << cap;
  }
}

ics::LinkFrame numbered_frame(std::uint32_t i) {
  ics::LinkFrame lf;
  lf.link = i % 5;
  lf.frame.timestamp = 0.5 * i;
  lf.frame.is_response = (i % 3) == 0;
  // Lengths cycle through 0..40 out of phase with any small capacity, so a
  // reused slot often receives a frame shorter than its previous one.
  lf.frame.bytes.resize((i * 7u) % 41u);
  for (std::size_t b = 0; b < lf.frame.bytes.size(); ++b) {
    lf.frame.bytes[b] = static_cast<std::uint8_t>(i * 31u + b);
  }
  return lf;
}

TEST(SpscQueue, ReusedSlotsNeverLeakAPreviousFramesBytes) {
  constexpr std::uint32_t kFrames = 30000;
  for (const std::size_t cap : {1u, 5u, 64u}) {
    SpscQueue<ics::LinkFrame> q(cap);
    std::thread producer([&] {
      for (std::uint32_t i = 0; i < kFrames; ++i) {
        const ics::LinkFrame lf = numbered_frame(i);
        if (i % 2 == 0) {
          q.push(lf);
        } else {  // the ShardedEngine path: fields written into the slot
          q.push_with([&](ics::LinkFrame& slot) {
            slot.link = lf.link;
            slot.frame = lf.frame;
          });
        }
      }
      q.close();
    });
    // One reused pop target: each pop swaps its old buffer into the ring.
    ics::LinkFrame got;
    std::uint32_t i = 0;
    while (q.pop(got)) {
      const ics::LinkFrame want = numbered_frame(i);
      ASSERT_EQ(got.link, want.link) << "frame " << i << ", capacity " << cap;
      ASSERT_EQ(got.frame, want.frame) << "frame " << i << ", capacity "
                                       << cap;
      ++i;
    }
    producer.join();
    EXPECT_EQ(i, kFrames);
  }
}

TEST(SpscQueue, StatsAreExactAfterAConcurrentRun) {
  constexpr std::uint64_t kItems = 100000;
  SpscQueue<std::uint64_t> q(1);
  std::thread consumer([&] {
    std::uint64_t out = 0;
    while (q.pop(out)) {
    }
  });
  for (std::uint64_t i = 0; i < kItems; ++i) q.push(i);
  q.close();
  consumer.join();
  const auto stats = q.stats();
  EXPECT_EQ(stats.pushes, kItems);
  EXPECT_EQ(stats.pops, kItems);
  EXPECT_GT(stats.producer_blocks, 0u);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(stats.peak_depth, 1u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(SpscQueue, CarriesMoveOnlyPayloads) {
  SpscQueue<std::unique_ptr<int>> q(2);
  EXPECT_TRUE(q.try_push(std::make_unique<int>(1)));
  q.push(std::make_unique<int>(2));
  auto kept = std::make_unique<int>(3);
  EXPECT_FALSE(q.try_push(std::move(kept)));  // full: the caller keeps it
  ASSERT_NE(kept, nullptr);
  EXPECT_EQ(*kept, 3);

  std::unique_ptr<int> out;
  ASSERT_TRUE(q.pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 1);

  constexpr int kItems = 20000;
  std::thread producer([&] {
    for (int i = 3; i < kItems; ++i) q.push(std::make_unique<int>(i));
    q.close();
  });
  int expect = 2;
  while (q.pop(out)) {
    ASSERT_NE(out, nullptr);
    ASSERT_EQ(*out, expect++);
  }
  producer.join();
  EXPECT_EQ(expect, kItems);
}

// close() from a third thread while the consumer sleeps in pop_for: the
// consumer wakes with every item pushed before the close, then kClosed,
// long before its timeout.
TEST(SpscQueue, CloseRacingABlockedPopForWakesIt) {
  for (int round = 0; round < 100; ++round) {
    SpscQueue<int> q(4);
    const int pending = round % 3;  // items pushed before the close
    std::vector<int> received;
    SpscQueue<int>::PopResult last = SpscQueue<int>::PopResult::kItem;
    const auto start = std::chrono::steady_clock::now();
    std::thread consumer([&] {
      int out = 0;
      while ((last = q.pop_for(out, 10000)) ==
             SpscQueue<int>::PopResult::kItem) {
        received.push_back(out);
      }
    });
    std::this_thread::sleep_for(std::chrono::microseconds(20 * round));
    std::thread closer([&] {
      for (int i = 0; i < pending; ++i) q.push(i);
      q.close();
    });
    closer.join();
    consumer.join();
    const auto waited = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(last, SpscQueue<int>::PopResult::kClosed) << "round " << round;
    EXPECT_LT(waited, std::chrono::seconds(5)) << "round " << round;
    ASSERT_EQ(received.size(), static_cast<std::size_t>(pending));
    for (int i = 0; i < pending; ++i) EXPECT_EQ(received[i], i);
  }
}

}  // namespace
}  // namespace mlad
