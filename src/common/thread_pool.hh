/**
 * @file
 * A small work-stealing thread pool for CPU-bound fan-out, built for
 * ensemble compilation (PassManager::runEnsemble) and other
 * embarrassingly parallel sweeps.
 *
 * Each worker owns a deque of tasks: it pops work from the front of
 * its own queue and, when that runs dry, steals from the back of a
 * sibling's queue.  Tasks submitted from outside the pool are
 * distributed round-robin so a burst of uniform tasks starts out
 * balanced and stealing only has to fix stragglers.
 *
 * The pool makes no ordering or placement guarantees, so work
 * executed on it must be deterministic by construction: every task
 * derives its own inputs (e.g. a counter-based Rng stream, see
 * rng.hh) and writes to its own output slot.  parallelFor() below
 * packages exactly that pattern.
 */

#ifndef CASQ_COMMON_THREAD_POOL_HH
#define CASQ_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace casq {

/** Work-stealing pool of a fixed number of worker threads. */
class ThreadPool
{
  public:
    /**
     * Spawn `threads` workers; 0 means one per hardware thread.
     * The pool is ready to accept work immediately.
     */
    explicit ThreadPool(unsigned threads = 0);

    /** Joins the workers; pending tasks are completed first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned threadCount() const
    {
        return static_cast<unsigned>(_workers.size());
    }

    /** Hardware concurrency with a floor of one. */
    static unsigned hardwareThreads();

    /**
     * Shared thread-count convention of every options struct
     * (ExecutionOptions.threads, EnsembleOptions.threads, ...):
     * 0 means one worker per hardware thread, any other value is
     * taken literally (oversubscription is allowed -- results never
     * depend on the count, only throughput does).
     */
    static unsigned resolveThreads(unsigned requested)
    {
        return requested == 0 ? hardwareThreads() : requested;
    }

    /**
     * Enqueue a task.  Tasks must not throw (casq reports internal
     * errors via casq_panic, which aborts); an escaping exception
     * terminates the process.
     */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished running. */
    void wait();

  private:
    struct Worker
    {
        std::deque<std::function<void()>> queue;
    };

    std::vector<Worker> _workers;
    std::vector<std::thread> _threads;

    /** One lock for all queues; tasks are coarse (whole compiles). */
    std::mutex _mutex;
    std::condition_variable _wake; //!< workers: work or shutdown
    std::condition_variable _idle; //!< waiters: pending hit zero
    std::size_t _pending = 0;      //!< submitted but not finished
    std::size_t _nextQueue = 0;    //!< round-robin submission cursor
    bool _shutdown = false;

    void workerLoop(std::size_t self);

    /**
     * Pop a task, preferring worker `self`'s own queue front and
     * falling back to stealing from the back of the first non-empty
     * sibling queue.  Returns an empty function when all queues are
     * empty.  Caller must hold _mutex.
     */
    std::function<void()> takeTask(std::size_t self);
};

/**
 * Run body(0) .. body(count - 1), spreading the calls over
 * `threads` workers (0 means one per hardware thread).  Each index
 * is invoked exactly once; with threads <= 1 (or count <= 1) the
 * calls happen inline on the calling thread, in index order, with
 * no pool spun up.  Returns when every call has finished.
 *
 * body must be safe to invoke concurrently for distinct indices.
 */
void parallelFor(std::size_t count, unsigned threads,
                 const std::function<void(std::size_t)> &body);

} // namespace casq

#endif // CASQ_COMMON_THREAD_POOL_HH
