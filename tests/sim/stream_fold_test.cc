// Ordered chunk fold (src/sim/stream_fold.h): ticket admission, strict fold
// order and exception release.
//
// The rendezvous case pins the scheduling contract: with W >= participants
// the first `participants` chunks are computed at the same time. A fold that
// ran on contiguous pool claims put chunks 0-3 on one worker, whose
// siblings then blocked behind the frontier, so the fold ran serially.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/stream_fold.h"
#include "src/sim/thread_pool.h"

namespace femux {
namespace {

constexpr std::size_t kThreads = 4;

// Size the pool to caller + 3 workers before anything here touches it.
const bool kEnvReady = [] {
  setenv("FEMUX_THREADS", "4", 1);
  return true;
}();

// Holds each arriving thread until `expected` threads are inside at once, or
// until the timeout, after which it lets everyone through and records the
// failure (so a serialized fold fails an assertion instead of hanging).
class Rendezvous {
 public:
  explicit Rendezvous(std::size_t expected) : expected_(expected) {}

  void Arrive(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mu_);
    ++arrived_;
    cv_.notify_all();
    if (!cv_.wait_for(lock, timeout,
                      [&] { return broken_ || arrived_ >= expected_; })) {
      broken_ = true;
      cv_.notify_all();
    }
  }

  bool met() {
    std::lock_guard<std::mutex> lock(mu_);
    return !broken_ && arrived_ >= expected_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  const std::size_t expected_;
  std::size_t arrived_ = 0;
  bool broken_ = false;
};

TEST(StreamFoldTest, FirstChunksComputeConcurrently) {
  ASSERT_TRUE(kEnvReady);
  ASSERT_EQ(ThreadPool::Instance().worker_count() + 1, kThreads);
  Rendezvous rendezvous(kThreads);
  OrderedChunkOptions options;
  options.threads = kThreads;
  options.max_pending_chunks = 10;
  std::vector<std::size_t> folded;
  const OrderedChunkStats stats = ParallelOrderedChunksBounded<std::size_t>(
      64, options,
      [&](std::size_t c) {
        if (c < kThreads) rendezvous.Arrive(std::chrono::seconds(30));
        return c * c;
      },
      [&](std::size_t c, std::size_t&& square) {
        EXPECT_EQ(square, c * c);
        folded.push_back(c);
      });
  EXPECT_TRUE(rendezvous.met())
      << "chunks 0-" << kThreads - 1 << " never ran on " << kThreads
      << " participants at once";
  ASSERT_EQ(folded.size(), 64u);
  for (std::size_t c = 0; c < folded.size(); ++c) EXPECT_EQ(folded[c], c);
  EXPECT_LE(stats.peak_pending_chunks, 10u);
}

TEST(StreamFoldTest, ComputeExceptionReachesCallerWithoutHanging) {
  ASSERT_TRUE(kEnvReady);
  constexpr std::size_t kThrowAt = 5;
  OrderedChunkOptions options;
  options.threads = kThreads;
  options.max_pending_chunks = 1;
  std::vector<std::size_t> folded;
  EXPECT_THROW(
      ParallelOrderedChunksBounded<std::size_t>(
          32, options,
          [&](std::size_t c) -> std::size_t {
            if (c == kThrowAt) throw std::runtime_error("chunk failed");
            return c;
          },
          [&](std::size_t c, std::size_t&&) { folded.push_back(c); }),
      std::runtime_error);
  // Bound 1 admits one chunk at a time, so exactly the chunks before the
  // failure were folded, in order.
  ASSERT_EQ(folded.size(), kThrowAt);
  for (std::size_t c = 0; c < folded.size(); ++c) EXPECT_EQ(folded[c], c);
}

TEST(StreamFoldTest, FoldSeesChunksStrictlyInOrderForAnyBound) {
  ASSERT_TRUE(kEnvReady);
  constexpr std::size_t kChunks = 40;
  for (const std::size_t bound :
       {std::size_t{1}, std::size_t{2}, std::size_t{8}, std::size_t{0}}) {
    SCOPED_TRACE("bound=" + std::to_string(bound));
    OrderedChunkOptions options;
    options.threads = kThreads;
    options.max_pending_chunks = bound;
    std::vector<std::size_t> folded;
    const OrderedChunkStats stats = ParallelOrderedChunksBounded<std::size_t>(
        kChunks, options,
        [](std::size_t c) {
          // Uneven compute times finish later chunks before earlier ones.
          std::this_thread::sleep_for(
              std::chrono::microseconds(200 * ((kChunks - c) % 7)));
          return c + 1000;
        },
        [&](std::size_t c, std::size_t&& value) {
          EXPECT_EQ(value, c + 1000);
          folded.push_back(c);
        });
    ASSERT_EQ(folded.size(), kChunks);
    for (std::size_t c = 0; c < kChunks; ++c) EXPECT_EQ(folded[c], c);
    EXPECT_GE(stats.peak_pending_chunks, 1u);
    if (bound > 0) {
      EXPECT_LE(stats.peak_pending_chunks, bound);
    }
  }
}

}  // namespace
}  // namespace femux
