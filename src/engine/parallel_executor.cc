#include "engine/parallel_executor.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <iterator>
#include <utility>

namespace tetris {

namespace {

// Worker identity, for reentrant Run: a Run issued from a pool task must
// help its own pool instead of blocking a worker slot.
thread_local const WorkStealingPool* tls_pool = nullptr;
thread_local int tls_worker = 0;

}  // namespace

WorkStealingPool::WorkStealingPool(int threads) {
  const int n = std::max(1, std::min(threads, 256));
  queues_.resize(static_cast<size_t>(n));
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

WorkStealingPool::~WorkStealingPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

int WorkStealingPool::HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

WorkStealingPool& WorkStealingPool::Global() {
  static WorkStealingPool pool(HardwareThreads());
  return pool;
}

WorkStealingPool::Task WorkStealingPool::NextTask(int self) {
  if (!queues_[self].empty()) {
    Task task = std::move(queues_[self].back());
    queues_[self].pop_back();
    --unassigned_;
    return task;
  }
  const int n = static_cast<int>(queues_.size());
  for (int off = 1; off < n; ++off) {
    auto& victim = queues_[(self + off) % n];
    if (!victim.empty()) {
      Task task = std::move(victim.front());
      victim.pop_front();
      --unassigned_;
      return task;
    }
  }
  return Task{};
}

void WorkStealingPool::WorkerLoop(int self) {
  tls_pool = this;
  tls_worker = self;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (Task task = NextTask(self); task.fn) {
      lock.unlock();
      task.fn();
      lock.lock();
      if (--task.group->pending == 0) cv_.notify_all();
      continue;
    }
    if (stop_) return;
    cv_.wait(lock, [this] { return stop_ || unassigned_ > 0; });
  }
}

void WorkStealingPool::Run(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  Group group;
  const bool nested = tls_pool == this;
  {
    std::lock_guard<std::mutex> lock(mu_);
    group.pending = tasks.size();
    // A nested Run seeds its own worker's deque first (popped from the
    // back before anyone steals); external Runs spread round-robin.
    const size_t base = nested ? static_cast<size_t>(tls_worker) : 0;
    for (size_t i = 0; i < tasks.size(); ++i) {
      queues_[(base + i) % queues_.size()].push_back(
          {std::move(tasks[i]), &group});
    }
    unassigned_ += group.pending;
  }
  cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  if (nested) {
    // Help: execute queued tasks (any group's — they all finish) until
    // this group drains. Waits only while every remaining task of the
    // group is already running on another worker.
    while (group.pending > 0) {
      if (Task task = NextTask(tls_worker); task.fn) {
        lock.unlock();
        task.fn();
        lock.lock();
        if (--task.group->pending == 0) cv_.notify_all();
      } else {
        cv_.wait(lock, [this, &group] {
          return group.pending == 0 || unassigned_ > 0;
        });
      }
    }
  } else {
    cv_.wait(lock, [&group] { return group.pending == 0; });
  }
}

void ParallelFor(WorkStealingPool* pool, int max_parallel, int n,
                 const std::function<void(int)>& fn) {
  // One task or one worker runs inline without touching the pool, so a
  // sequential caller never creates the global executor.
  int w = 1;
  WorkStealingPool* p = nullptr;
  if (n > 1 && max_parallel != 1) {
    p = pool != nullptr ? pool : &WorkStealingPool::Global();
    w = max_parallel <= 0 ? p->threads() : std::min(max_parallel, p->threads());
    w = std::min(w, n);
  }
  if (w <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }
  // Ticket loop: w pool tasks drain one shared counter, so the group
  // occupies at most w workers of the shared budget while stealing keeps
  // them balanced.
  std::atomic<int> next{0};
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<size_t>(w));
  for (int t = 0; t < w; ++t) {
    tasks.push_back([&next, n, &fn] {
      for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
    });
  }
  p->Run(std::move(tasks));
}

std::vector<Tuple> MergeSortedRuns(std::vector<std::vector<Tuple>> runs) {
  if (runs.size() == 1) return std::move(runs[0]);
  size_t total = 0;
  for (const std::vector<Tuple>& run : runs) total += run.size();
  std::vector<Tuple> out;
  out.reserve(total);
  // bounds[r] is where run r starts in `out`; the last entry is the end.
  std::vector<size_t> bounds = {0};
  for (std::vector<Tuple>& run : runs) {
    if (run.empty()) continue;
    out.insert(out.end(), std::make_move_iterator(run.begin()),
               std::make_move_iterator(run.end()));
    bounds.push_back(out.size());
  }
  // Pass w merges groups of w runs pairwise, so the group size doubles.
  const size_t k = bounds.size() - 1;
  for (size_t w = 1; w < k; w *= 2) {
    for (size_t r = 0; r + w < k; r += 2 * w) {
      const auto mid = out.begin() + bounds[r + w];
      // Two groups already in order (shards split on a leading
      // attribute) need no merge.
      if (*mid < *(mid - 1)) {
        std::inplace_merge(out.begin() + bounds[r], mid,
                           out.begin() + bounds[std::min(r + 2 * w, k)]);
      }
    }
  }
  return out;
}

}  // namespace tetris
