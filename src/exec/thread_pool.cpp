#include "exec/thread_pool.hpp"

#include "util/logging.hpp"

namespace turnmodel {

unsigned
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

ThreadPool::ThreadPool(unsigned threads)
{
    const unsigned n = threads > 0 ? threads : hardwareThreads();
    queues_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        queues_.push_back(std::make_unique<WorkerQueue>());
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

bool
ThreadPool::popLocal(unsigned id, std::size_t &index)
{
    WorkerQueue &q = *queues_[id];
    std::lock_guard<std::mutex> lock(q.mutex);
    if (q.indices.empty())
        return false;
    index = q.indices.front();
    q.indices.pop_front();
    return true;
}

bool
ThreadPool::stealAny(unsigned id, std::size_t &index)
{
    const unsigned n = size();
    for (unsigned offset = 1; offset < n; ++offset) {
        WorkerQueue &victim = *queues_[(id + offset) % n];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (victim.indices.empty())
            continue;
        index = victim.indices.back();
        victim.indices.pop_back();
        steals_.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    return false;
}

void
ThreadPool::runOne(std::size_t index)
{
    try {
        (*body_)(index);
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!first_error_)
            first_error_ = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    --outstanding_;
}

void
ThreadPool::workerLoop(unsigned id)
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        work_cv_.wait(lock,
                      [&] { return stop_ || generation_ != seen; });
        if (stop_)
            return;
        seen = generation_;
        // A worker that wakes only after the batch finished must not
        // join it: parallelFor may already have returned, and a late
        // ++active_ would trip the next call's reentrancy check.
        if (outstanding_ == 0)
            continue;
        ++active_;
        lock.unlock();

        std::size_t index;
        while (popLocal(id, index) || stealAny(id, index))
            runOne(index);

        lock.lock();
        if (--active_ == 0 && outstanding_ == 0)
            done_cv_.notify_all();
    }
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &body)
{
    if (count == 0)
        return;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        TM_ASSERT(outstanding_ == 0 && active_ == 0,
                  "parallelFor is not reentrant");
        // All workers are parked waiting for a new generation, so
        // the deques can be filled without racing a stale stealer.
        const unsigned n = size();
        for (std::size_t i = 0; i < count; ++i) {
            WorkerQueue &q = *queues_[i % n];
            std::lock_guard<std::mutex> qlock(q.mutex);
            q.indices.push_back(i);
        }
        body_ = &body;
        outstanding_ = count;
        first_error_ = nullptr;
        ++generation_;
    }
    work_cv_.notify_all();

    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock,
                  [&] { return outstanding_ == 0 && active_ == 0; });
    if (first_error_) {
        std::exception_ptr error = first_error_;
        first_error_ = nullptr;
        lock.unlock();
        std::rethrow_exception(error);
    }
}

WorkerTeam::WorkerTeam(unsigned ranks)
    : ranks_(ranks > 0 ? ranks : 1), barrier_(ranks > 0 ? ranks : 1)
{
    members_.reserve(ranks_ - 1);
    for (unsigned r = 1; r < ranks_; ++r)
        members_.emplace_back([this, r] { memberLoop(r); });
}

WorkerTeam::~WorkerTeam()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    start_cv_.notify_all();
    for (std::thread &member : members_)
        member.join();
}

void
WorkerTeam::memberLoop(unsigned rank)
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        start_cv_.wait(lock,
                       [&] { return stop_ || epoch_ != seen; });
        if (stop_)
            return;
        seen = epoch_;
        const std::function<void(unsigned)> *job = job_;
        lock.unlock();

        try {
            (*job)(rank);
        } catch (...) {
            std::lock_guard<std::mutex> elock(mutex_);
            if (!first_error_)
                first_error_ = std::current_exception();
        }

        lock.lock();
        if (--running_ == 0)
            done_cv_.notify_all();
    }
}

void
WorkerTeam::run(const std::function<void(unsigned)> &fn)
{
    if (ranks_ == 1) {
        fn(0);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        TM_ASSERT(job_ == nullptr, "WorkerTeam::run is not reentrant");
        job_ = &fn;
        running_ = ranks_ - 1;
        first_error_ = nullptr;
        ++epoch_;
    }
    start_cv_.notify_all();

    try {
        fn(0);
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!first_error_)
            first_error_ = std::current_exception();
    }

    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return running_ == 0; });
    job_ = nullptr;
    if (first_error_) {
        std::exception_ptr error = first_error_;
        first_error_ = nullptr;
        lock.unlock();
        std::rethrow_exception(error);
    }
}

} // namespace turnmodel
