// Fixed-size pool of worker threads draining a FIFO task queue.
//
// The solver's decomposition layer (src/solver/decompose.cc) submits one
// task per independent component; any other subsystem may submit tasks the
// same way. Wait() blocks until every submitted task has finished,
// so one pool can be reused across submission rounds. The destructor drains
// remaining tasks before joining.

#ifndef TETRISCHED_COMMON_THREAD_POOL_H_
#define TETRISCHED_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace tetrisched {

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();  // runs queued tasks to completion, then joins

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);

  // Blocks until every task submitted so far has finished running.
  void Wait();

  int size() const { return static_cast<int>(threads_.size()); }

  // Hardware concurrency with a floor of 1 (the standard allows 0 to mean
  // "unknown").
  static int HardwareThreads();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: task available or stopping
  std::condition_variable idle_cv_;  // Wait(): all tasks drained
  std::queue<std::function<void()>> tasks_;
  int in_flight_ = 0;  // queued + currently running tasks
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace tetrisched

#endif  // TETRISCHED_COMMON_THREAD_POOL_H_
