/**
 * @file
 * detmc engine — virtual threads, the DFS-with-replay exhaustive
 * scheduler, sleep-set pruning and schedule replay (see detmc.h).
 *
 * Concurrency discipline: one mutex guards all engine state; workers
 * park on cvWorker_, the controller on cvControl_. At every scheduling
 * decision *all* virtual threads are parked (or finished), so the
 * controller may evaluate await-predicates — pure reads of the model's
 * shared state — without racing anybody.
 */

#include "analysis/detmc.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <thread>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace galois::analysis::detmc {

namespace {

constexpr unsigned kMaxThreads = 16; // bitmask-backed sleep sets

const char*
kindName(OpKind k) noexcept
{
    switch (k) {
    case OpKind::Read: return "rd";
    case OpKind::Write: return "wr";
    case OpKind::Rmw: return "rmw";
    case OpKind::Await: return "await";
    case OpKind::AwaitProgress: return "prog";
    case OpKind::Yield: return "yield";
    }
    return "?";
}

/** Operation summary captured per thread at a decision point. */
struct OpRec
{
    OpKind kind = OpKind::Yield;
    const void* obj = nullptr;
};

/**
 * Dependence relation for sleep sets. Conservative: anything we are
 * unsure about is dependent (pruning less is always sound).
 */
bool
dependent(const OpRec& a, const OpRec& b) noexcept
{
    const auto writes = [](OpKind k) {
        return k == OpKind::Write || k == OpKind::Rmw;
    };
    if (a.kind == OpKind::Yield || b.kind == OpKind::Yield)
        return false;
    // A progress-wait observes *any* write; keep it ordered against all
    // writers so a wakeup is never pruned away.
    if (a.kind == OpKind::AwaitProgress)
        return writes(b.kind);
    if (b.kind == OpKind::AwaitProgress)
        return writes(a.kind);
    if (a.obj != b.obj)
        return false;
    return writes(a.kind) || writes(b.kind);
}

class Engine;

/** Set while the calling thread executes a model body. */
thread_local Engine* tlsEngine = nullptr;
thread_local unsigned tlsTid = 0;

/** Engine of the execution the *controller* thread is driving (lets
 *  note() work from setup()/check(), which run on the controller). */
thread_local Engine* tlsController = nullptr;

enum class TState : unsigned char
{
    Idle,    //!< between executions
    Running, //!< executing body code
    Parked,  //!< announced an op, waiting for a grant
    Finished //!< body returned (or unwound) for this execution
};

/** Pending operation of a parked thread. */
struct Pending
{
    OpKind kind = OpKind::Yield;
    const void* obj = nullptr;
    const char* site = "";
    bool (*pred)(const void*) = nullptr;
    const void* predCtx = nullptr;
    std::uint64_t blockStamp = 0; //!< writeStamp at AwaitProgress park
};

struct Vthread
{
    std::thread sys;
    TState state = TState::Idle;
    bool grant = false;
    std::uint64_t startGen = 0;
    std::uint64_t doneGen = 0;
    Pending op;
};

/** One DFS stack entry: a scheduling decision and its alternatives. */
struct Node
{
    std::uint32_t enabled = 0;    //!< enabled tids at this state
    std::uint32_t sleepEntry = 0; //!< sleep set inherited at entry
    std::uint32_t tried = 0;      //!< choices with explored subtrees
    unsigned chosen = 0;          //!< current choice
    OpRec ops[kMaxThreads];       //!< pending op per tid (dependence)
};

/**
 * Pins the constructing thread to the CPU it runs on, for the guard's
 * lifetime; threads it spawns meanwhile inherit the mask. Exactly one
 * vthread or the controller runs at any moment, so on one CPU every
 * hand-off is a same-core wakeup instead of a cross-core one (detmc_test
 * on a 4-core VM: ~108 s unpinned, ~43 s pinned). Which schedules are
 * explored is unchanged: every decision is the controller's. Best
 * effort — if the mask cannot be read or set, nothing is pinned.
 */
class CpuPin
{
  public:
    CpuPin()
    {
#if defined(__linux__)
        const int cpu = sched_getcpu();
        if (cpu < 0 || pthread_getaffinity_np(pthread_self(),
                                              sizeof(saved_), &saved_))
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        pinned_ =
            pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
#endif
    }

    ~CpuPin()
    {
#if defined(__linux__)
        if (pinned_)
            pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
#endif
    }

    CpuPin(const CpuPin&) = delete;
    CpuPin& operator=(const CpuPin&) = delete;

  private:
#if defined(__linux__)
    cpu_set_t saved_;
#endif
    bool pinned_ = false;
};

/** What one execution came back with. */
enum class RunKind
{
    Complete, //!< all threads finished; check() ran clean
    Violated, //!< check failure / deadlock / livelock (recorded)
    Pruned    //!< sleep set emptied the candidate set at a new node
};

class Engine
{
  public:
    Engine(const ModelSpec& spec, const Options& opts)
        : spec_(spec), opts_(opts)
    {
        if (spec_.nthreads == 0 || spec_.nthreads > kMaxThreads)
            throw std::invalid_argument("detmc: nthreads out of range");
        if (!spec_.setup || !spec_.body || !spec_.check)
            throw std::invalid_argument("detmc: incomplete ModelSpec");
        threads_.resize(spec_.nthreads);
        if (opts_.seedBug)
            activeBug_ = opts_.seedBug;
        for (unsigned t = 0; t < spec_.nthreads; ++t)
            threads_[t].sys = std::thread([this, t] { workerLoop(t); });
    }

    ~Engine()
    {
        {
            std::lock_guard<std::mutex> lk(m_);
            shutdown_ = true;
        }
        cvWorker_.notify_all();
        for (auto& t : threads_)
            t.sys.join();
        activeBug_ = nullptr;
    }

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /**
     * Run one execution. Scheduling decisions come from `stack` below
     * `prefix`; past it, `stack` grows (explore mode, forced == null)
     * or choices come from `forced` (replay mode, stack ignored).
     */
    RunKind
    runOnce(std::vector<Node>& stack, std::size_t prefix,
            const std::vector<unsigned>* forced, Stats& stats,
            std::string& violation)
    {
        beginExecution();
        tlsController = this;
        try {
            spec_.setup();
        } catch (const std::exception& e) {
            tlsController = nullptr;
            violation = std::string("setup threw: ") + e.what();
            return RunKind::Violated;
        }
        releaseThreads();

        std::size_t depth = 0;
        RunKind out = RunKind::Complete;
        for (;;) {
            waitQuiesced();
            if (bodyViolation_.has_value()) {
                violation = *bodyViolation_;
                out = RunKind::Violated;
                break;
            }
            if (allFinished())
                break;
            const std::uint32_t enabled = enabledMask();
            if (enabled == 0) {
                violation = "deadlock/lost wakeup: no virtual thread is "
                            "enabled (blocked threads: " +
                            blockedSummary() + ")";
                out = RunKind::Violated;
                break;
            }
            unsigned choice;
            if (forced) {
                if (depth >= forced->size()) {
                    violation = "schedule exhausted with threads still "
                                "runnable at step " +
                                std::to_string(depth);
                    out = RunKind::Violated;
                    break;
                }
                choice = (*forced)[depth];
                if (choice >= spec_.nthreads ||
                    !(enabled & (1u << choice))) {
                    violation = "invalid schedule: thread " +
                                std::to_string(choice) +
                                " not enabled at step " +
                                std::to_string(depth);
                    out = RunKind::Violated;
                    break;
                }
            } else if (depth < prefix) {
                choice = stack[depth].chosen; // replaying the DFS prefix
            } else {
                Node n;
                n.enabled = enabled;
                for (unsigned t = 0; t < spec_.nthreads; ++t)
                    n.ops[t] = OpRec{threads_[t].op.kind,
                                     threads_[t].op.obj};
                if (depth > 0 && opts_.sleepSets) {
                    const Node& p = stack[depth - 1];
                    const OpRec& ran = p.ops[p.chosen];
                    std::uint32_t inherit = p.sleepEntry | p.tried;
                    inherit &= ~(1u << p.chosen);
                    for (unsigned t = 0; t < spec_.nthreads; ++t)
                        if ((inherit >> t) & 1u &&
                            !dependent(p.ops[t], ran))
                            n.sleepEntry |= 1u << t;
                }
                const std::uint32_t cand = enabled & ~n.sleepEntry;
                if (cand == 0) {
                    ++stats.sleepPruned;
                    out = RunKind::Pruned;
                    break;
                }
                n.chosen = lowestBit(cand);
                stack.push_back(n);
                choice = n.chosen;
            }
            grant(choice);
            ++stats.steps;
            ++depth;
            if (depth > opts_.maxSteps) {
                violation = "step bound (" +
                            std::to_string(opts_.maxSteps) +
                            ") exceeded: livelock or unbounded model";
                out = RunKind::Violated;
                break;
            }
        }

        if (out != RunKind::Complete) {
            abortExecution();
            if (out == RunKind::Violated)
                appendTrace(std::string("== violation: ") + violation +
                            "\n");
        } else {
            try {
                spec_.check();
                appendTrace("== ok\n");
            } catch (const std::exception& e) {
                violation = e.what();
                appendTrace(std::string("== violation: ") + e.what() +
                            "\n");
                out = RunKind::Violated;
            }
        }
        tlsController = nullptr;
        return out;
    }

    const std::vector<unsigned>& schedule() const { return schedule_; }
    const std::string& trace() const { return trace_; }

    void
    noteEvent(const std::string& event)
    {
        std::lock_guard<std::mutex> lk(m_);
        trace_ += "-- ";
        trace_ += event;
        trace_ += '\n';
    }

    // ---- called from virtual threads (via the hook entry points) ----

    void
    park(Pending op)
    {
        std::unique_lock<std::mutex> lk(m_);
        if (abort_)
            throw AbortSignal{};
        Vthread& me = threads_[tlsTid];
        me.op = op;
        if (op.kind == OpKind::AwaitProgress)
            me.op.blockStamp = writeStamp_;
        me.state = TState::Parked;
        cvControl_.notify_all();
        cvWorker_.wait(lk, [&] { return me.grant || abort_; });
        me.grant = false;
        me.state = TState::Running;
        if (abort_)
            throw AbortSignal{};
    }

    static Engine* current() noexcept { return tlsEngine; }
    static Engine* controller() noexcept { return tlsController; }

    const char*
    bug() const noexcept
    {
        return activeBug_;
    }

  private:
    static unsigned
    lowestBit(std::uint32_t mask) noexcept
    {
        unsigned t = 0;
        while (!((mask >> t) & 1u))
            ++t;
        return t;
    }

    void
    workerLoop(unsigned tid)
    {
        std::unique_lock<std::mutex> lk(m_);
        for (;;) {
            Vthread& me = threads_[tid];
            cvWorker_.wait(lk, [&] {
                return shutdown_ || me.startGen > me.doneGen;
            });
            if (shutdown_)
                return;
            lk.unlock();
            tlsEngine = this;
            tlsTid = tid;
            try {
                spec_.body(tid);
            } catch (const AbortSignal&) {
                // execution torn down; nothing to record
            } catch (const std::exception& e) {
                std::lock_guard<std::mutex> g(m_);
                if (!bodyViolation_)
                    bodyViolation_ = std::string("thread ") +
                                     std::to_string(tid) +
                                     " threw: " + e.what();
            }
            tlsEngine = nullptr;
            lk.lock();
            me.doneGen = me.startGen;
            me.state = TState::Finished;
            cvControl_.notify_all();
        }
    }

    void
    beginExecution()
    {
        std::lock_guard<std::mutex> lk(m_);
        schedule_.clear();
        trace_.clear();
        objects_.clear();
        writeStamp_ = 0;
        abort_ = false;
        bodyViolation_.reset();
        ++gen_;
    }

    void
    releaseThreads()
    {
        {
            std::lock_guard<std::mutex> lk(m_);
            for (auto& t : threads_) {
                t.state = TState::Running;
                t.grant = false;
                t.startGen = gen_;
            }
        }
        cvWorker_.notify_all();
    }

    /** Block until every thread is parked (grant consumed) or done. */
    void
    waitQuiesced()
    {
        std::unique_lock<std::mutex> lk(m_);
        cvControl_.wait(lk, [&] {
            for (const auto& t : threads_) {
                if (t.state == TState::Finished)
                    continue;
                if (t.state == TState::Parked && !t.grant)
                    continue;
                return false;
            }
            return true;
        });
    }

    bool
    allFinished()
    {
        std::lock_guard<std::mutex> lk(m_);
        for (const auto& t : threads_)
            if (t.state != TState::Finished)
                return false;
        return true;
    }

    /** Enabled tids. Caller guarantees quiescence (predicates are pure
     *  reads of model state, evaluated with every thread parked). */
    std::uint32_t
    enabledMask()
    {
        std::lock_guard<std::mutex> lk(m_);
        std::uint32_t mask = 0;
        for (unsigned t = 0; t < spec_.nthreads; ++t) {
            const Vthread& vt = threads_[t];
            if (vt.state != TState::Parked)
                continue;
            bool on = true;
            if (vt.op.kind == OpKind::Await)
                on = vt.op.pred(vt.op.predCtx);
            else if (vt.op.kind == OpKind::AwaitProgress)
                on = writeStamp_ > vt.op.blockStamp;
            if (on)
                mask |= 1u << t;
        }
        return mask;
    }

    std::string
    blockedSummary()
    {
        std::lock_guard<std::mutex> lk(m_);
        std::string s;
        for (unsigned t = 0; t < spec_.nthreads; ++t) {
            if (threads_[t].state != TState::Parked)
                continue;
            if (!s.empty())
                s += ", ";
            s += "t" + std::to_string(t) + " at " + threads_[t].op.site;
        }
        return s.empty() ? std::string("none") : s;
    }

    void
    grant(unsigned tid)
    {
        {
            std::lock_guard<std::mutex> lk(m_);
            Vthread& vt = threads_[tid];
            schedule_.push_back(tid);
            const Pending& op = vt.op;
            if (op.kind == OpKind::Write || op.kind == OpKind::Rmw)
                ++writeStamp_;
            trace_ += std::to_string(schedule_.size() - 1);
            trace_ += " t";
            trace_ += std::to_string(tid);
            trace_ += ' ';
            trace_ += kindName(op.kind);
            trace_ += ' ';
            trace_ += op.site;
            if (op.obj != nullptr) {
                trace_ += " o";
                trace_ += std::to_string(objectId(op.obj));
            }
            trace_ += '\n';
            vt.grant = true;
        }
        cvWorker_.notify_all();
    }

    /** Dense object id in first-grant order — schedule-deterministic,
     *  unlike the raw address (which detaudit would rightly flag). */
    std::size_t
    objectId(const void* obj)
    {
        for (std::size_t i = 0; i < objects_.size(); ++i)
            if (objects_[i] == obj)
                return i;
        objects_.push_back(obj);
        return objects_.size() - 1;
    }

    void
    appendTrace(const std::string& s)
    {
        std::lock_guard<std::mutex> lk(m_);
        trace_ += s;
    }

    /** Tear the execution down: every parked thread is granted with
     *  abort_ set, throws AbortSignal out of its body, and finishes. */
    void
    abortExecution()
    {
        {
            std::lock_guard<std::mutex> lk(m_);
            abort_ = true;
        }
        cvWorker_.notify_all();
        std::unique_lock<std::mutex> lk(m_);
        cvControl_.wait(lk, [&] {
            for (const auto& t : threads_)
                if (t.state != TState::Finished)
                    return false;
            return true;
        });
    }

    const ModelSpec& spec_;
    const Options& opts_;
    CpuPin pin_; // before the vthreads spawn, released after they join
    std::vector<Vthread> threads_;

    std::mutex m_;
    std::condition_variable cvWorker_;
    std::condition_variable cvControl_;
    bool shutdown_ = false;
    bool abort_ = false;
    std::uint64_t gen_ = 0;
    std::uint64_t writeStamp_ = 0;
    std::vector<unsigned> schedule_;
    std::string trace_;
    std::vector<const void*> objects_;
    std::optional<std::string> bodyViolation_;

    /** Armed seeded bug for the engine's lifetime. Process-global so
     *  the hook (bugEnabled) stays a cheap pointer test; explore() and
     *  replay() are not reentrant across engines, which the kMaxLive
     *  guard in the constructor's caller (one engine at a time) keeps
     *  honest. */
    static const char* activeBug_;
};

const char* Engine::activeBug_ = nullptr;

} // namespace

// ---------------------------------------------------------------------
// Hook entry points (declared in detmc_hooks.h).
// ---------------------------------------------------------------------

bool
onVthread() noexcept
{
    return tlsEngine != nullptr;
}

unsigned
vthreadId() noexcept
{
    return tlsTid;
}

void
opPoint(OpKind kind, const void* obj, const char* site)
{
    Engine* e = Engine::current();
    if (!e)
        return;
    Pending p;
    p.kind = kind;
    p.obj = obj;
    p.site = site;
    e->park(p);
}

void
await(const void* obj, const char* site, bool (*pred)(const void*),
      const void* ctx)
{
    Engine* e = Engine::current();
    if (!e) {
        // Off-model this is a plain spin (callers only reach await()
        // from inside an onVthread() branch, so this is a safety net).
        while (!pred(ctx)) {
        }
        return;
    }
    Pending p;
    p.kind = OpKind::Await;
    p.obj = obj;
    p.site = site;
    p.pred = pred;
    p.predCtx = ctx;
    e->park(p);
}

void
yieldProgress(const char* site)
{
    Engine* e = Engine::current();
    if (!e)
        return;
    Pending p;
    p.kind = OpKind::AwaitProgress;
    p.site = site;
    e->park(p);
}

bool
bugEnabled(const char* name) noexcept
{
    const Engine* e = Engine::current();
    if (!e)
        return false;
    const char* armed = e->bug();
    return armed != nullptr && std::strcmp(armed, name) == 0;
}

void
note(const std::string& event)
{
    Engine* e = Engine::current();
    if (!e)
        e = Engine::controller();
    if (e)
        e->noteEvent(event);
}

// ---------------------------------------------------------------------
// Exploration driver.
// ---------------------------------------------------------------------

Result
explore(const ModelSpec& spec, const Options& opts)
{
    constexpr std::size_t kMaxViolations = 8;
    Engine eng(spec, opts);
    Result res;
    std::vector<Node> stack;
    std::size_t prefix = 0;
    for (;;) {
        if (res.stats.schedules >= opts.maxSchedules) {
            res.stats.boundHit = true;
            break;
        }
        std::string what;
        const RunKind kind =
            eng.runOnce(stack, prefix, nullptr, res.stats, what);
        if (kind != RunKind::Pruned)
            ++res.stats.schedules;
        if (kind == RunKind::Violated) {
            if (res.violations.size() < kMaxViolations)
                res.violations.push_back(
                    Violation{what, eng.schedule()});
            if (res.violations.size() >= kMaxViolations)
                break;
        }
        // Backtrack: deepest node with an untried, non-sleeping
        // alternative continues the DFS.
        bool advanced = false;
        while (!stack.empty()) {
            Node& n = stack.back();
            n.tried |= 1u << n.chosen;
            const std::uint32_t cand =
                n.enabled & ~n.sleepEntry & ~n.tried;
            if (cand != 0) {
                unsigned t = 0;
                while (!((cand >> t) & 1u))
                    ++t;
                n.chosen = t;
                advanced = true;
                break;
            }
            stack.pop_back();
        }
        if (!advanced)
            break;
        prefix = stack.size();
    }
    return res;
}

ReplayResult
replay(const ModelSpec& spec, const std::vector<unsigned>& schedule,
       const Options& opts)
{
    Engine eng(spec, opts);
    Stats stats;
    std::string what;
    std::vector<Node> unusedStack;
    const RunKind kind =
        eng.runOnce(unusedStack, 0, &schedule, stats, what);
    ReplayResult r;
    r.violated = kind == RunKind::Violated;
    r.what = what;
    r.trace = eng.trace();
    return r;
}

std::string
Result::summary(const char* name) const
{
    std::string s(name);
    s += ": ";
    s += std::to_string(stats.schedules);
    s += " schedules, ";
    s += std::to_string(stats.steps);
    s += " steps, ";
    s += std::to_string(stats.sleepPruned);
    s += " sleep-pruned, ";
    s += std::to_string(violations.size());
    s += " violations";
    if (stats.boundHit)
        s += " (bound hit)";
    return s;
}

std::vector<unsigned>
parseSchedule(const std::string& text)
{
    std::vector<unsigned> out;
    unsigned cur = 0;
    bool have = false;
    for (char c : text) {
        if (c >= '0' && c <= '9') {
            cur = cur * 10 + static_cast<unsigned>(c - '0');
            have = true;
        } else if (c == ',' || c == ' ') {
            if (have)
                out.push_back(cur);
            cur = 0;
            have = false;
        } else {
            throw std::invalid_argument(
                "detmc: bad schedule character");
        }
    }
    if (have)
        out.push_back(cur);
    return out;
}

std::string
formatSchedule(const std::vector<unsigned>& schedule)
{
    std::string s;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
        if (i)
            s += ',';
        s += std::to_string(schedule[i]);
    }
    return s;
}

} // namespace galois::analysis::detmc
