#include "core/executor.h"

#include <algorithm>
#include <chrono>
#include <exception>

#include "obs/stats.h"
#include "obs/trace.h"

namespace jinjing::core {

namespace {

constexpr std::uint64_t pack(std::size_t next, std::size_t end) {
  return (static_cast<std::uint64_t>(next) << 32) | static_cast<std::uint64_t>(end);
}
constexpr std::size_t range_next(std::uint64_t packed) {
  return static_cast<std::size_t>(packed >> 32);
}
constexpr std::size_t range_end(std::uint64_t packed) {
  return static_cast<std::size_t>(packed & 0xffffffffu);
}

}  // namespace

struct Executor::Job {
  std::size_t count = 0;
  const WorkerFactory* factory = nullptr;
  std::size_t range_count = 0;  // shared ranges == participating workers
  std::vector<std::atomic<std::uint64_t>> ranges;

  CancelSource cancel;
  std::atomic<std::size_t> bound;  // tasks with index > bound are skipped
  std::atomic<std::size_t> executed{0};
  std::atomic<std::size_t> cancelled{0};
  std::atomic<std::size_t> steals{0};

  // First exception thrown by any task/factory; the whole run is cancelled
  // and the exception rethrown from run() on the calling thread.
  std::mutex error_mutex;
  std::exception_ptr error;

  void record_error(std::exception_ptr e) {
    {
      const std::lock_guard<std::mutex> lock{error_mutex};
      if (!error) error = std::move(e);
    }
    cancel.cancel();
  }

  Job(std::size_t n, const WorkerFactory& f, std::size_t workers)
      : count(n), factory(&f), range_count(std::min(workers, n)), ranges(range_count), bound(n) {
    // Deal [0, count) into range_count contiguous strips.
    const std::size_t base = count / range_count;
    const std::size_t extra = count % range_count;
    std::size_t cursor = 0;
    for (std::size_t r = 0; r < range_count; ++r) {
      const std::size_t len = base + (r < extra ? 1 : 0);
      ranges[r].store(pack(cursor, cursor + len), std::memory_order_relaxed);
      cursor += len;
    }
  }
};

Executor::Executor(unsigned threads) : threads_(std::max(1u, threads)) {
  pool_.reserve(threads_ - 1);
  for (unsigned t = 1; t < threads_; ++t) {
    pool_.emplace_back([this, t] { thread_main(t); });
  }
}

Executor::~Executor() {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& t : pool_) t.join();
}

void Executor::thread_main(std::size_t pool_index) {
  std::uint64_t seen_seq = 0;
  while (true) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      cv_.wait(lock, [&] { return shutdown_ || job_seq_ != seen_seq; });
      if (shutdown_) return;
      seen_seq = job_seq_;
      job = job_;
      if (job == nullptr || pool_index >= job->range_count) continue;
      ++active_;
    }
    work(*job, pool_index);
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      --active_;
    }
    done_cv_.notify_one();
  }
}

void Executor::execute_range(Job& job, const Task& task, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (job.cancel.cancelled() || i > job.bound.load(std::memory_order_relaxed)) {
      job.cancelled.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const CancellationToken token{&job.cancel, &job.bound, i};
    bool stop = false;
    try {
      stop = task(i, token);
    } catch (...) {
      job.record_error(std::current_exception());
    }
    job.executed.fetch_add(1, std::memory_order_relaxed);
    if (stop) {
      // CAS-min: the bound only ever decreases, so the final value is the
      // minimal stopping index no matter how the pool interleaved.
      std::size_t current = job.bound.load(std::memory_order_relaxed);
      while (i < current &&
             !job.bound.compare_exchange_weak(current, i, std::memory_order_relaxed)) {
      }
    }
  }
}

void Executor::work(Job& job, std::size_t worker_id) {
  Task task;
  try {
    task = (*job.factory)(worker_id);
  } catch (...) {
    job.record_error(std::current_exception());
    task = [](std::size_t, const CancellationToken&) { return false; };
  }
  while (true) {
    // Drain the worker's own range first (owner pop: CAS next -> next+1).
    auto& own = job.ranges[worker_id];
    std::uint64_t packed = own.load(std::memory_order_acquire);
    while (range_next(packed) < range_end(packed)) {
      const std::size_t i = range_next(packed);
      if (own.compare_exchange_weak(packed, pack(i + 1, range_end(packed)),
                                    std::memory_order_acq_rel)) {
        execute_range(job, task, i, i + 1);
        packed = own.load(std::memory_order_acquire);
      }
    }

    // Own range empty: steal the upper half of the fullest other range and
    // execute it locally (never re-published, so shared ranges only shrink).
    std::size_t victim = job.range_count;
    std::size_t best = 0;
    for (std::size_t r = 0; r < job.range_count; ++r) {
      if (r == worker_id) continue;
      const std::uint64_t v = job.ranges[r].load(std::memory_order_acquire);
      const std::size_t avail = range_end(v) - range_next(v);
      if (avail > best) {
        best = avail;
        victim = r;
      }
    }
    if (victim == job.range_count) return;  // nothing left anywhere

    std::uint64_t v = job.ranges[victim].load(std::memory_order_acquire);
    const std::size_t next = range_next(v);
    const std::size_t end = range_end(v);
    if (next >= end) continue;  // raced away; rescan
    // The thief takes [mid, end): the upper half, and the whole range when
    // one task is left — rounding mid up would hand it the empty [end, end)
    // and spin on the victim's CAS until the owner came back.
    const std::size_t mid = next + (end - next) / 2;
    if (job.ranges[victim].compare_exchange_strong(v, pack(next, mid),
                                                   std::memory_order_acq_rel)) {
      job.steals.fetch_add(1, std::memory_order_relaxed);
      obs::observe(obs::Histogram::ExecutorQueueDepth, end - next);
      execute_range(job, task, mid, end);
    }
  }
}

ExecutionStats Executor::run(std::size_t count, const WorkerFactory& factory) {
  const std::lock_guard<std::mutex> run_lock{run_mutex_};
  const obs::TraceSpan run_span{obs::Span::ExecutorRun};
  const auto start = std::chrono::steady_clock::now();
  ExecutionStats stats;
  if (count == 0) {
    stats.stop_index = 0;
    return stats;
  }
  obs::count(obs::Counter::ExecutorRuns);
  obs::count(obs::Counter::ExecutorTasks, count);
  obs::observe(obs::Histogram::ExecutorTasksPerRun, count);

  Job job{count, factory, threads_};

  if (job.range_count > 1) {
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      job_ = &job;
      ++job_seq_;
    }
    cv_.notify_all();
  }

  work(job, 0);  // the caller is worker 0

  if (job.range_count > 1) {
    std::unique_lock<std::mutex> lock{mutex_};
    done_cv_.wait(lock, [&] { return active_ == 0; });
    job_ = nullptr;
  }

  if (job.error) std::rethrow_exception(job.error);

  stats.executed = job.executed.load();
  stats.cancelled = job.cancelled.load();
  stats.steals = job.steals.load();
  obs::count(obs::Counter::ExecutorSteals, stats.steals);
  const std::size_t bound = job.bound.load();
  stats.stop_index = bound >= count ? count : bound;
  stats.execute_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return stats;
}

}  // namespace jinjing::core
