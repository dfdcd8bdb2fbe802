// Deterministic fold over parallel chunk computations.
//
// Chunk computations finish in nondeterministic order across threads, and
// floating-point accumulation is not associative — a streaming consumer
// folding results in completion order would produce thread-count- and
// timing-dependent totals, breaking the DESIGN.md §10 bit-identity
// contract. ParallelOrderedChunksBounded restores determinism: compute(c)
// runs in parallel, but fold(c, result) is invoked on chunks strictly in
// index order (0, 1, 2, ...), holding completed-but-not-yet-due results in
// a pending map. The fold order — and therefore every accumulated bit — is
// identical for any thread count, chunk size and pending bound.
//
// Ticket admission (DESIGN.md §14): the fold hands out chunk tickets itself,
// in frontier order, instead of running on ParallelFor's contiguous claims.
// Each participant loops: under the fold mutex it waits until
// issued < next + W (W = max_pending_chunks), takes ticket c = issued++,
// computes c outside the lock, then parks or folds the result. Tickets
// [next, issued) are the only chunks past the frontier, so held-back
// results never exceed W and the next W chunks are always the ones in
// flight.
//
// Deadlock-free for any W >= 1: a participant waits only while it holds no
// ticket. If every participant waited, every issued ticket would be parked,
// and the chunk at the frontier (the smallest issued ticket) is never
// parked — it is folded the moment it completes — so issued == next, which
// admits a ticket. The compute or fold that throws first sets `failed` and
// wakes every waiter; the others stop taking tickets, and ParallelFor
// rethrows the first exception on the caller.
#ifndef SRC_SIM_STREAM_FOLD_H_
#define SRC_SIM_STREAM_FOLD_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "src/sim/parallel.h"

namespace femux {

struct OrderedChunkOptions {
  std::size_t threads = 0;  // 0 = pool default (FEMUX_THREADS / hw).
  // Upper bound on chunks admitted past the fold frontier (compute slots +
  // held-back results). 0 = unbounded.
  std::size_t max_pending_chunks = 0;
};

struct OrderedChunkStats {
  // Peak completed-but-not-yet-due results held back; <= max_pending_chunks
  // when a bound is set.
  std::size_t peak_pending_chunks = 0;
  // Times a participant blocked waiting for the fold frontier to advance.
  std::size_t backpressure_waits = 0;
};

// Runs compute(c) for c in [0, num_chunks) on the process thread pool and
// calls fold(c, std::move(result)) in strict chunk order. `fold` runs under
// an internal mutex on whichever participant completes the due chunk; it
// must be cheap and must not submit nested parallel work.
template <typename ChunkResult>
OrderedChunkStats ParallelOrderedChunksBounded(
    std::size_t num_chunks, const OrderedChunkOptions& options,
    const std::function<ChunkResult(std::size_t)>& compute,
    const std::function<void(std::size_t, ChunkResult&&)>& fold) {
  std::mutex mu;
  std::condition_variable admitted;
  std::map<std::size_t, ChunkResult> pending;
  std::size_t issued = 0;  // Next ticket to hand out.
  std::size_t next = 0;    // Fold frontier: next chunk due.
  bool failed = false;
  OrderedChunkStats stats;
  const std::size_t bound = options.max_pending_chunks;
  const auto can_take = [&] {
    return failed || issued >= num_chunks || bound == 0 || issued < next + bound;
  };

  const std::size_t threads =
      options.threads > 0 ? options.threads : ConfiguredThreadCount();
  const std::size_t participants = std::min(num_chunks, threads);
  ParallelFor(
      participants,
      [&](std::size_t) {
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
          if (!can_take()) {
            ++stats.backpressure_waits;
            admitted.wait(lock, can_take);
          }
          if (failed || issued >= num_chunks) return;
          const std::size_t c = issued++;
          lock.unlock();
          std::optional<ChunkResult> result;
          try {
            result.emplace(compute(c));
          } catch (...) {
            lock.lock();
            failed = true;
            admitted.notify_all();
            throw;
          }
          lock.lock();
          if (failed) return;
          pending.emplace(c, std::move(*result));
          stats.peak_pending_chunks =
              std::max(stats.peak_pending_chunks, pending.size());
          bool advanced = false;
          while (!pending.empty() && pending.begin()->first == next) {
            auto it = pending.begin();
            try {
              fold(it->first, std::move(it->second));
            } catch (...) {
              failed = true;
              admitted.notify_all();
              throw;
            }
            pending.erase(it);
            ++next;
            advanced = true;
          }
          if (advanced && bound > 0) admitted.notify_all();
        }
      },
      participants);
  return stats;
}

}  // namespace femux

#endif  // SRC_SIM_STREAM_FOLD_H_
