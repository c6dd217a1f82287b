#include "harness/run_pool.hh"

#include <algorithm>
#include <exception>

#include <sched.h>

namespace hard
{

namespace
{

/** This thread's budget while it runs a pool task; 0 outside any. */
thread_local unsigned t_taskBudget = 0;

/** Sets this thread's task budget for one task, restoring it after. */
class BudgetScope
{
  public:
    explicit BudgetScope(unsigned budget) : saved_(t_taskBudget)
    {
        t_taskBudget = budget;
    }
    ~BudgetScope() { t_taskBudget = saved_; }

    BudgetScope(const BudgetScope &) = delete;
    BudgetScope &operator=(const BudgetScope &) = delete;

  private:
    unsigned saved_;
};

} // namespace

unsigned
hostThreads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

/**
 * One in-flight batch. Lives on the runIndexed caller's stack; all
 * fields are guarded by RunPool::mu_ (fn itself runs unlocked).
 */
struct RunPool::Batch
{
    std::size_t count = 0;
    const std::function<void(std::size_t)> *fn = nullptr;
    /** Next index to claim (work-stealing cursor). */
    std::size_t next = 0;
    /** Tasks not yet finished. */
    std::size_t remaining = 0;
    /** Per-index exception slots (null when the task succeeded). */
    std::vector<std::exception_ptr> errors;
    /** Thread budget of each task (RunPool::laneBudget()). */
    unsigned budget = 1;
};

unsigned
RunPool::defaultJobs()
{
    return hostThreads();
}

unsigned
RunPool::laneBudget()
{
    return t_taskBudget != 0 ? t_taskBudget : hostThreads();
}

unsigned
RunPool::taskBudget() const
{
    return std::max(1u, laneBudget() / jobs_);
}

RunPool::RunPool(unsigned jobs) : jobs_(jobs == 0 ? defaultJobs() : jobs)
{
    // jobs == 1 runs batches inline; no workers needed.
    if (jobs_ < 2)
        return;
    workers_.reserve(jobs_);
    for (unsigned i = 0; i < jobs_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

RunPool::~RunPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
RunPool::workerLoop()
{
    std::unique_lock<std::mutex> lk(mu_);
    while (true) {
        wake_.wait(lk, [this] {
            return stop_ ||
                (batch_ != nullptr && batch_->next < batch_->count);
        });
        if (stop_)
            return;
        Batch *b = batch_;
        while (b->next < b->count) {
            const std::size_t i = b->next++;
            lk.unlock();
            std::exception_ptr err;
            try {
                BudgetScope scope(b->budget);
                (*b->fn)(i);
            } catch (...) {
                err = std::current_exception();
            }
            lk.lock();
            if (err)
                b->errors[i] = err;
            if (--b->remaining == 0)
                done_.notify_all();
        }
    }
}

void
RunPool::runIndexed(std::size_t count,
                    const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;

    // Serial degeneration: index order on the calling thread, the
    // first exception propagating immediately (same observable
    // behaviour as the pooled lowest-index-wins rule).
    if (jobs_ < 2 || workers_.empty()) {
        BudgetScope scope(taskBudget());
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    std::vector<std::exception_ptr> errors = drain(count, fn);
    for (std::exception_ptr &err : errors)
        if (err)
            std::rethrow_exception(err);
}

std::vector<std::exception_ptr>
RunPool::runCollect(std::size_t count,
                    const std::function<void(std::size_t)> &fn)
{
    std::vector<std::exception_ptr> errors(count);
    if (count == 0)
        return errors;

    // Serial degeneration: unlike runIndexed, a failed task does not
    // stop the batch — every index runs and failures land in their
    // slots, exactly as in the pooled case.
    if (jobs_ < 2 || workers_.empty()) {
        BudgetScope scope(taskBudget());
        for (std::size_t i = 0; i < count; ++i) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
        return errors;
    }

    return drain(count, fn);
}

std::vector<std::exception_ptr>
RunPool::drain(std::size_t count,
               const std::function<void(std::size_t)> &fn)
{
    std::lock_guard<std::mutex> caller(callerMu_);

    Batch b;
    b.count = count;
    b.fn = &fn;
    b.remaining = count;
    b.errors.resize(count);
    b.budget = taskBudget();

    {
        std::unique_lock<std::mutex> lk(mu_);
        batch_ = &b;
        wake_.notify_all();
        done_.wait(lk, [&b] { return b.remaining == 0; });
        batch_ = nullptr;
    }

    return std::move(b.errors);
}

} // namespace hard
