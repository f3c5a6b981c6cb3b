#ifndef OLITE_COMMON_THREAD_POOL_H_
#define OLITE_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <thread>
#include <vector>

namespace olite {

/// The width of fork-join data-parallel loops. A ThreadPool holds no
/// threads: each ParallelFor starts the helpers it needs and joins them
/// before returning, so nested calls are safe and an idle pool costs
/// nothing.
class ThreadPool {
 public:
  /// The default width: `hardware_concurrency`, at least 1.
  static unsigned DefaultThreads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }

  /// Resolves a user-facing `threads` knob: 0 means DefaultThreads().
  static unsigned ResolveThreads(unsigned threads) {
    return threads == 0 ? DefaultThreads() : threads;
  }

  /// A pool of width `threads` (0 = DefaultThreads()).
  explicit ThreadPool(unsigned threads = 0)
      : num_threads_(ResolveThreads(threads)) {}

  /// Total execution width, including the calling thread.
  unsigned num_threads() const { return num_threads_; }

  /// Invokes `fn(i)` for every `i` in `[begin, end)`, in chunks of `grain`
  /// indices. The calling thread and at most `min(width, chunks) - 1`
  /// threads started for this call claim chunks from one atomic ticket;
  /// the call returns once they are joined, so every write of `fn` is
  /// visible to the caller. Width 1, or a range of one chunk, runs inline
  /// in index order. Chunk assignment is dynamic, so `fn` must write only
  /// per-index state to stay deterministic. An exception thrown by `fn`
  /// on any thread is rethrown to the caller after the join (the caller's
  /// own first, then the helpers' in start order).
  template <typename Fn>
  void ParallelFor(size_t begin, size_t end, size_t grain, Fn&& fn) const {
    if (begin >= end) return;
    if (grain == 0) grain = 1;
    const size_t chunks = (end - begin - 1) / grain + 1;
    const size_t width = std::min<size_t>(num_threads_, chunks);
    if (width == 1) {
      for (size_t i = begin; i < end; ++i) fn(i);
      return;
    }
    std::atomic<size_t> next{begin};
    std::vector<std::exception_ptr> errors(width);
    auto drain = [&](size_t slot) {
      try {
        size_t b;
        while ((b = next.fetch_add(grain, std::memory_order_relaxed)) < end) {
          const size_t e = std::min(b + grain, end);
          for (size_t i = b; i < e; ++i) fn(i);
        }
      } catch (...) {
        errors[slot] = std::current_exception();
      }
    };
    {
      std::vector<std::jthread> helpers;
      helpers.reserve(width - 1);
      for (size_t t = 1; t < width; ++t) helpers.emplace_back(drain, t);
      drain(0);
    }
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

 private:
  unsigned num_threads_;
};

}  // namespace olite

#endif  // OLITE_COMMON_THREAD_POOL_H_
