// Fixed-size thread pool for the experiment harnesses: the figure pipeline,
// the ablation sweeps and Runner::run_policy dispatch independent simulation
// cells to it. Jobs are drained FIFO from a shared queue (cells are coarse —
// milliseconds to seconds each — so a chunked shared queue beats per-thread
// deques here).
//
// Concurrency is controlled by the SPCD_JOBS environment knob (see
// configured_jobs()); a pool of size <= 1 executes every job inline in
// submit(), which reproduces the serial path exactly: no worker threads are
// created and jobs run in submission order.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace spcd::util {

/// Aggregate of every job failure in one ThreadPool batch. wait() throws
/// this instead of rethrowing only the first exception, so a sweep where
/// several cells fail reports all of them. Derives from std::runtime_error
/// (what() lists every failed job's context and message), and keeps the
/// individual exception_ptrs for callers that need the original types.
class JobErrors : public std::runtime_error {
 public:
  struct Entry {
    std::string context;  ///< the submit() context ("" if none was given)
    std::string message;  ///< what() of the exception (or "unknown error")
    std::exception_ptr error;
  };

  explicit JobErrors(std::vector<Entry> errors);

  const std::vector<Entry>& errors() const { return errors_; }

 private:
  std::vector<Entry> errors_;
};

/// Worker count requested via SPCD_JOBS: default (unset or 0) is the
/// hardware concurrency, 1 forces the serial path.
unsigned configured_jobs();

class ThreadPool {
 public:
  /// `threads == 0` uses configured_jobs(). A pool of size <= 1 runs jobs
  /// inline in submit() and never spawns a thread.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (>= 1; 1 means serial/inline execution).
  unsigned size() const { return threads_; }

  /// Enqueue one job. Serial pools run it before returning (exceptions
  /// propagate directly); parallel pools hand it to a worker. `context`
  /// names the job in a JobErrors report (e.g. "cg/spcd rep 3").
  void submit(std::function<void()> job, std::string context = {});

  /// Block until every submitted job has finished. If any jobs threw,
  /// throws one JobErrors aggregating every failure with its context —
  /// never just the first. The pool is reusable afterwards.
  void wait();

  /// wait(), but failures are only logged — for teardown paths that must
  /// not throw.
  void wait_all_noexcept() noexcept;

  /// Jobs submitted but not yet finished (queued + running). Approximate by
  /// nature; meant for progress reporting.
  std::size_t in_flight() const;

 private:
  void worker_loop();

  unsigned threads_ = 1;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  struct QueuedJob {
    std::function<void()> fn;
    std::string context;
  };

  std::deque<QueuedJob> queue_;
  std::size_t unfinished_ = 0;  ///< queued + currently running
  std::vector<JobErrors::Entry> errors_;
  bool stop_ = false;
};

/// Apply `fn` to every element of `items` on `pool`, returning the results
/// in input order. Blocks until the whole batch is done; rethrows the first
/// job exception.
template <typename T, typename Fn>
auto parallel_map(ThreadPool& pool, const std::vector<T>& items, Fn&& fn)
    -> std::vector<decltype(fn(items[0]))> {
  std::vector<decltype(fn(items[0]))> out(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    pool.submit([&out, &items, &fn, i] { out[i] = fn(items[i]); });
  }
  pool.wait();
  return out;
}

}  // namespace spcd::util
