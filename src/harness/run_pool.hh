/**
 * @file
 * A small fixed-size worker pool for fanning out independent
 * simulation runs.
 *
 * Every unit of experiment work in this repository (one System run
 * with its own Program, RNG stream and detector set) is fully
 * independent of every other, so the batch driver can execute them in
 * any order on any thread — provided the *merge* of their results is
 * deterministic. RunPool therefore exposes an indexed-batch interface:
 * tasks are identified by their index, workers pull indices from a
 * shared atomic cursor (cheap work stealing), and the caller receives
 * results/exceptions keyed by index so merged output never depends on
 * completion order.
 *
 * Guarantees:
 *  - jobs == 1 degenerates to inline serial execution on the calling
 *    thread, in index order, with no threads created;
 *  - an exception thrown by a task is rethrown to the caller after the
 *    whole batch has drained (workers never die mid-batch); when
 *    several tasks throw, the lowest task index wins, deterministically;
 *  - runCollect() instead returns every task's exception keyed by
 *    index, the primitive behind --keep-going batch sweeps;
 *  - an empty batch returns immediately;
 *  - the pool is reusable for any number of batches.
 *
 * RunPool also owns the process's thread budget. Let H be
 * hostThreads(), the CPUs this process may run on. A task of a pool of
 * J workers may spend max(1, H / J) threads (laneBudget()); code
 * outside any pool may spend H. Fast-mode units spend theirs on replay
 * lanes (trace/replayer.hh), so a one-worker sweep fills the cores a
 * J = H sweep already fills with workers, and neither oversubscribes.
 */

#ifndef HARD_HARNESS_RUN_POOL_HH
#define HARD_HARNESS_RUN_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hard
{

/**
 * @return the number of CPUs the calling thread may run on: its
 * affinity mask (taskset, cpusets), else hardware_concurrency(), at
 * least 1.
 */
unsigned hostThreads();

/** Fixed-size pool executing indexed batches of independent tasks. */
class RunPool
{
  public:
    /**
     * @param jobs Worker count; 0 selects defaultJobs(). With jobs == 1
     * no threads are created and batches run inline on the caller.
     */
    explicit RunPool(unsigned jobs = 0);

    /** Joins all workers (any in-flight batch completes first). */
    ~RunPool();

    RunPool(const RunPool &) = delete;
    RunPool &operator=(const RunPool &) = delete;

    /** @return the configured degree of parallelism (>= 1). */
    unsigned jobs() const { return jobs_; }

    /**
     * Execute fn(0) .. fn(count - 1) across the workers and block
     * until all complete. Rethrows the lowest-index task exception
     * (if any) once the batch has fully drained.
     */
    void runIndexed(std::size_t count,
                    const std::function<void(std::size_t)> &fn);

    /**
     * Keep-going variant of runIndexed: every task runs even when
     * earlier ones fail, and nothing is rethrown. Returns one
     * exception slot per task index (null where the task succeeded),
     * so the caller can classify and report all failures instead of
     * just the first. With jobs == 1 tasks run inline in index order.
     */
    std::vector<std::exception_ptr>
    runCollect(std::size_t count,
               const std::function<void(std::size_t)> &fn);

    /**
     * Map an index range through @p fn, collecting results in index
     * order (never completion order). T must be default-constructible.
     */
    template <typename T>
    std::vector<T>
    map(std::size_t count, const std::function<T(std::size_t)> &fn)
    {
        std::vector<T> out(count);
        runIndexed(count,
                   [&](std::size_t i) { out[i] = fn(i); });
        return out;
    }

    /** @return hostThreads(): the worker count of a pool of 0 jobs. */
    static unsigned defaultJobs();

    /**
     * @return the threads the calling code may spend: max(1, B / J)
     * inside a task of a pool of J workers, where B is the budget of
     * the thread that submitted the batch; hostThreads() outside any
     * pool.
     */
    static unsigned laneBudget();

  private:
    /** State of the batch currently being drained (nullptr if idle). */
    struct Batch;

    void workerLoop();

    /** @return laneBudget() for this pool's tasks, as seen by the
     * thread submitting a batch. */
    unsigned taskBudget() const;

    /** Run a pooled batch to completion; per-index exception slots. */
    std::vector<std::exception_ptr>
    drain(std::size_t count, const std::function<void(std::size_t)> &fn);

    const unsigned jobs_;
    std::vector<std::thread> workers_;

    std::mutex callerMu_; // serializes concurrent runIndexed callers
    std::mutex mu_;
    std::condition_variable wake_; // workers wait for a batch / stop
    std::condition_variable done_; // caller waits for batch drain
    Batch *batch_ = nullptr;       // owned by runIndexed's frame
    bool stop_ = false;
};

} // namespace hard

#endif // HARD_HARNESS_RUN_POOL_HH
