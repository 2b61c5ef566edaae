/**
 * @file
 * Benchmark driver: runs one benchmark workload through the library's
 * public API the way mpos_bench runs it, checks the outputs and
 * prints one JSON report as its last line. perfbench/run.py builds
 * it, runs it several times per benchmark run and turns the reports
 * into the benchmark's metrics.
 *
 *   perfbench_driver --workload paper4|wide16|wide16_msi_mcs
 *                    --mode setup|sweep|traced --seed N [--seed M ...]
 *                    --scratch DIR [--short]
 *
 * A workload is a list of bench registry analyses plus the machine
 * settings mpos_bench's --cpus/--protocol/--lock-proto flags would
 * give them; the seed reaches the library as mpos_bench's MPOS_SEED
 * does. Its sweep is the set of jobs those analyses queue.
 *
 * --mode setup   Builds every job of the sweep, in submission order,
 *                holding each one as the sweep's runner does, and
 *                times each constructor. (The runner builds and runs
 *                a job in one call, so construction is timed here.)
 * --mode sweep   The sweep as a user runs it: a bench::BenchContext
 *                on hostJobs threads, every job queued up front,
 *                every analysis run through the registry with its
 *                stdout captured, finished machines held to the end;
 *                the CPU time of the runner's threads is the jobs'.
 * --mode traced  Per seed: builds the sweep's jobs here, one after
 *                another, runs them on hostJobs threads with a timing
 *                sim::Executor decorator, takes one snapshot round
 *                trip per job, measures the miss sinks with concurrent
 *                twins, then runs the sweep over a BenchContext and
 *                times each registry analysis once its jobs are done.
 *
 * Each mode checks every job it ran (see checkJob) and digests every
 * simulated statistic and every analysis's printed text.
 */

#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/registry.hh"
#include "core/experiment.hh"
#include "util/json.hh"
#include "util/threadpool.hh"

using namespace mpos;
using Clock = std::chrono::steady_clock;

namespace
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** CPU time of the calling thread: the host's steal time and the
 *  other threads' work do not count. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
seconds(const timeval &tv)
{
    return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
}

/**
 * CPU time (user + system) of every thread of the process but the
 * calling one, ended ones included. Time the hypervisor takes from
 * the host's CPUs (steal) does not count.
 */
double
otherThreadsCpuSeconds()
{
    rusage all{}, self{};
    getrusage(RUSAGE_SELF, &all);
    getrusage(RUSAGE_THREAD, &self);
    return seconds(all.ru_utime) + seconds(all.ru_stime) -
           seconds(self.ru_utime) - seconds(self.ru_stime);
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/** Heap bytes in use (glibc arenas plus mmapped blocks), in MB. */
double
heapInUseMb()
{
    const struct mallinfo2 mi = mallinfo2();
    return double(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

/** A field of /proc/self/status in kB (e.g. VmHWM). */
double
procStatusKb(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const size_t n = std::strlen(field);
    while (std::getline(in, line)) {
        if (line.compare(0, n, field) == 0 && line.size() > n &&
            line[n] == ':')
            return std::strtod(line.c_str() + n + 1, nullptr);
    }
    return 0;
}

[[noreturn]] void
usageError(const std::string &msg)
{
    std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
    std::exit(2);
}

/** FNV-1a over simulated statistics and printed analysis text. */
class Digest
{
  public:
    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
    void
    add(const std::string &s)
    {
        add(uint64_t(s.size()));
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ULL;
        }
    }
    uint64_t value() const { return h; }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof buf, "%016llx", (unsigned long long)h);
        return buf;
    }

  private:
    uint64_t h = 14695981039346656037ULL;
};

// ---------------------------------------------------------------- //
// Workloads                                                        //
// ---------------------------------------------------------------- //

struct Workload
{
    const char *name;
    /** Registry analyses, in the order mpos_bench runs them. */
    std::vector<const char *> analyses;
    /** The MPOS_* settings mpos_bench's flags would make. */
    std::vector<std::pair<const char *, const char *>> env;
};

const std::vector<Workload> &
workloads()
{
    static const std::vector<Workload> list = {
        // Every figure/table of the paper: the analyses over the three
        // standard runs, the Figure 11 CPU sweep and the ablations
        // (the registry's 8-64 CPU scaling_* sweeps are left out).
        {"paper4",
         {"table01_workloads", "fig01_pattern", "fig02_os_operations",
          "fig03_invocation_dist", "fig04_imiss_classes",
          "fig05_self_interference", "fig06_icache_sweep",
          "fig07_dmiss_classes", "fig08_sharing_structs",
          "table04_migration", "table05_migration_ops",
          "table06_blockops", "table07_block_sizes", "fig09_functional",
          "table09_summary", "fig10_ap_dispos", "table10_sync_stall",
          "table12_lock_profile", "fig11_lock_scaling",
          "ablation_optimizations"},
         {}},
        // The per-run summaries (Tables 1/10/12) of the three standard
        // runs at 16 CPUs: mpos_bench --cpus 16.
        {"wide16",
         {"table01_workloads", "table10_sync_stall",
          "table12_lock_profile"},
         {{"MPOS_CPUS", "16"}}},
        // The same under mpos_bench --protocol msi --lock-proto mcs.
        {"wide16_msi_mcs",
         {"table01_workloads", "table10_sync_stall",
          "table12_lock_profile"},
         {{"MPOS_CPUS", "16"},
          {"MPOS_PROTOCOL", "msi"},
          {"MPOS_LOCK_PROTO", "mcs"}}},
    };
    return list;
}

const Workload &
workloadNamed(const std::string &name)
{
    for (const Workload &w : workloads())
        if (name == w.name)
            return w;
    usageError("unknown workload '" + name + "'");
}

std::vector<const bench::BenchEntry *>
registryEntries(const Workload &w)
{
    std::vector<const bench::BenchEntry *> out;
    for (const char *name : w.analyses) {
        const bench::BenchEntry *e = bench::findBench(name);
        if (!e)
            usageError(std::string("the registry lacks ") + name);
        out.push_back(e);
    }
    return out;
}

/** Queue the sweep's jobs as mpos_bench does: the standard runs the
 *  analyses read, then each analysis's own sweep jobs. */
void
queueSweep(bench::BenchContext &ctx,
           const std::vector<const bench::BenchEntry *> &sel)
{
    uint32_t mask = 0;
    for (const auto *e : sel)
        mask |= e->standardMask;
    for (int i = 0; i < 3; ++i) {
        if (mask & (1u << i))
            ctx.prepareStandard(bench::allWorkloads[i]);
    }
    for (const auto *e : sel) {
        if (e->prepare)
            e->prepare(ctx);
    }
}

/** The sweep's jobs, exactly as its runner would receive them. */
std::vector<std::pair<std::string, core::ExperimentConfig>>
plannedJobs(const std::vector<const bench::BenchEntry *> &sel)
{
    bench::BenchContext ctx(1);
    ctx.setPlanOnly(true);
    queueSweep(ctx, sel);
    return ctx.planned();
}

/** Table 1 of the paper, in bench::allWorkloads order (the values
 *  bench/table01_workloads.cc prints). */
const std::array<double, 7> paperTable1[3] = {
    {49.4, 31.1, 19.5, 52.6, 39.9, 21.0, 25.8}, // Pmake
    {53.2, 46.7, 0.1, 46.3, 46.5, 21.5, 24.9},  // Multpgm
    {62.4, 29.4, 8.2, 26.6, 62.5, 16.6, 26.8},  // Oracle
};

/** Index of a standard job in bench::allWorkloads, or -1. */
int
standardIndex(const std::string &job)
{
    for (int i = 0; i < 3; ++i)
        if (job == bench::standardJobName(bench::allWorkloads[i]))
            return i;
    return -1;
}

// ---------------------------------------------------------------- //
// Checks and digests                                               //
// ---------------------------------------------------------------- //

/**
 * Output checks of one finished job: cycle conservation, and the
 * classifier's counts against two sinks that count the classified
 * misses on their own.
 *
 * A CPU is charged for work when it starts it, so at any instant its
 * user + kernel + idle cycles equal the cycle it is busy until, which
 * is at or past the machine's clock. Summed over the CPUs that is
 * elapsed x CPUs plus the work still in flight at the end.
 */
std::string
checkJob(core::Experiment &e)
{
    const sim::Machine &m = e.machine();
    for (uint32_t c = 0; c < m.numCpus(); ++c) {
        const sim::Cpu &cpu = m.cpu(c);
        if (cpu.account.user() + cpu.account.kernel() +
                    cpu.account.idle() != cpu.busyUntil ||
            cpu.busyUntil < m.now())
            return "cycle account of cpu " + std::to_string(c) +
                   " does not conserve: user+kernel+idle = " +
                   std::to_string(cpu.account.all()) +
                   ", busy until " + std::to_string(cpu.busyUntil) +
                   ", elapsed " + std::to_string(m.now());
    }
    if (!e.config().collectMisses)
        return "";
    const core::MissCounts &mc = e.misses();
    if (e.functional().totalI() != mc.osITotal() ||
        e.functional().totalD() != mc.osDTotal())
        return "functional-class OS misses differ from the "
               "classifier's OS I/D totals";
    if (e.attribution().sharing().total !=
        mc.osD[unsigned(core::MissClass::Sharing)])
        return "attributed OS sharing misses differ from the "
               "classifier's OS D Sharing class";
    return "";
}

/** Every simulated statistic of a finished job. */
uint64_t
jobDigest(const std::string &name, core::Experiment &e)
{
    Digest d;
    d.add(name);
    const sim::CycleAccount a = e.account();
    for (unsigned m = 0; m < 3; ++m) {
        d.add(uint64_t(a.total[m]));
        d.add(uint64_t(a.stall[m]));
    }
    d.add(uint64_t(e.elapsed()));
    d.add(uint64_t(e.machine().now()));
    d.add(e.machine().monitor().transactions());
    d.add(e.machine().monitor().osTransactions());
    const core::MissCounts &mc = e.misses();
    for (uint32_t c = 0; c < core::numMissClasses; ++c) {
        for (uint64_t v : {mc.osI[c], mc.osD[c], mc.appI[c], mc.appD[c],
                           mc.idleI[c], mc.idleD[c]})
            d.add(v);
    }
    d.add(mc.osDispossameI);
    d.add(mc.osDispossameD);
    const kernel::Kernel &k = e.kern();
    for (uint64_t v :
         {k.contextSwitches(), k.migrations(), k.forks(), k.exits(),
          k.utlbFaults(), k.pageReclaims(), k.codePageRecycles(),
          k.lockHolderPreemptions(), k.diskRequests(),
          k.freePageCount()})
        d.add(v);
    for (uint32_t op = 0; op < sim::numOsOps; ++op)
        d.add(e.osOpCount(sim::OsOp(op)));
    const sim::SyncTransport &st = e.machine().sync();
    const sim::SyncOpCounts ops = st.sumOps(st.numLocks());
    d.add(ops.uncachedOps);
    d.add(ops.cachedOps);
    for (uint32_t c = 0; c < e.machine().numCpus(); ++c)
        d.add(uint64_t(st.stallCycles(c)));
    return d.value();
}

/** Run totals of the jobs a mode ran. */
struct JobTotals
{
    size_t attempted = 0;
    size_t failed = 0;
    std::vector<std::string> errors;
    double cpuCycles = 0; ///< Simulated cycles x CPUs, whole runs.
    uint64_t busTx = 0;
    double paperErrSum = 0; ///< Sum of |measured - paper| ...
    unsigned paperErrN = 0; ///< ... over this many Table 1 cells.

    void
    fail(const std::string &job, const std::string &what)
    {
        errors.push_back(job + ": " + what);
    }

    /** Count, check and total one finished job; false if a check
     *  failed. */
    bool
    addOk(const std::string &name, core::Experiment &e)
    {
        ++attempted;
        const std::string err = checkJob(e);
        if (!err.empty()) {
            ++failed;
            fail(name, err);
        }
        cpuCycles += double(e.machine().now()) * e.machine().numCpus();
        busTx += e.machine().monitor().transactions();
        const int row = standardIndex(name);
        if (row >= 0) {
            const core::Table1Row r = e.table1();
            const std::array<double, 7> measured = {
                r.userPct,         r.sysPct,         r.idlePct,
                r.osMissFracPct,   r.allMissStallPct, r.osMissStallPct,
                r.osPlusInducedStallPct};
            for (size_t j = 0; j < measured.size(); ++j, ++paperErrN)
                paperErrSum += std::abs(measured[j] - paperTable1[row][j]);
        }
        return err.empty();
    }

    void
    addFailed(const std::string &name, const std::string &what)
    {
        ++attempted;
        ++failed;
        fail(name, what);
    }

    void
    merge(const JobTotals &o)
    {
        attempted += o.attempted;
        failed += o.failed;
        errors.insert(errors.end(), o.errors.begin(), o.errors.end());
    }
};

/**
 * Coarse spans: the calls this file makes into the library, with the
 * span that caused each. Kept in memory and written out with the
 * traced report. (The executor callbacks are too many for spans;
 * ExecTally aggregates them.)
 */
class SpanLog
{
  public:
    /** Open a span under parent (-1: none); returns its id. */
    int
    open(std::string name, int parent)
    {
        std::lock_guard<std::mutex> lock(m);
        spans.push_back({std::move(name), parent, now(), 0});
        return int(spans.size()) - 1;
    }

    /** Close a span; returns its duration in seconds. */
    double
    close(int id)
    {
        std::lock_guard<std::mutex> lock(m);
        spans[id].end = now();
        return spans[id].end - spans[id].start;
    }

    void
    write(FILE *f) const
    {
        std::fprintf(f, "[");
        for (size_t i = 0; i < spans.size(); ++i) {
            const SpanRecord &s = spans[i];
            std::fprintf(f,
                         "%s{\"name\": \"%s\", \"parent\": %d, "
                         "\"start_s\": %.6f, \"end_s\": %.6f}",
                         i ? ", " : "", util::jsonEscape(s.name).c_str(),
                         s.parent, s.start, s.end);
        }
        std::fprintf(f, "]");
    }

  private:
    struct SpanRecord
    {
        std::string name;
        int parent;
        double start, end; ///< Seconds since the log was created.
    };

    double now() const { return secondsSince(origin); }

    std::mutex m;
    Clock::time_point origin = Clock::now();
    std::vector<SpanRecord> spans;
};

// ---------------------------------------------------------------- //
// The sweep                                                        //
// ---------------------------------------------------------------- //

/** Redirects stdout into a file while one analysis prints. */
class StdoutCapture
{
  public:
    explicit StdoutCapture(const std::string &path) : file(path)
    {
        std::fflush(stdout);
        saved = dup(STDOUT_FILENO);
        const int fd = open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC,
                            0644);
        if (saved < 0 || fd < 0 || dup2(fd, STDOUT_FILENO) < 0)
            usageError("cannot capture stdout into " + path);
        close(fd);
    }

    ~StdoutCapture() { restore(); }

    StdoutCapture(const StdoutCapture &) = delete;
    StdoutCapture &operator=(const StdoutCapture &) = delete;

    /** Restore stdout; returns what was printed. */
    std::string
    finish()
    {
        restore();
        std::ifstream in(file, std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        return text.str();
    }

  private:
    void
    restore()
    {
        if (saved < 0)
            return;
        std::fflush(stdout);
        dup2(saved, STDOUT_FILENO);
        close(saved);
        saved = -1;
    }

    std::string file;
    int saved = -1;
};

/** Host worker threads of every sweep: at most 4, at most nproc. */
unsigned
hostJobs()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

struct SweepResult
{
    double wallS = 0;   ///< Queueing to the last analysis and job.
    double jobCpuS = 0; ///< CPU time of the runner's worker threads.
    std::map<std::string, double> analysisS;
    JobTotals jobs;
    std::string digest; ///< Analysis texts and job statistics.
    std::map<std::string, uint64_t> jobDigests;
};

/**
 * One sweep over a BenchContext. With a span log (the traced run) the
 * analyses start only once every job has finished, so each analysis's
 * time is its own; without one they run as in mpos_bench, overlapping
 * the jobs.
 */
SweepResult
runSweep(const std::vector<const bench::BenchEntry *> &sel,
         const std::string &capture_path, SpanLog *log)
{
    SweepResult out;
    Digest digest;
    bench::BenchContext ctx(hostJobs());
    const auto t0 = Clock::now();
    queueSweep(ctx, sel);
    if (log)
        ctx.runner().waitAll();
    for (const auto *e : sel) {
        const int span =
            log ? log->open(std::string("analysis.") + e->name, -1) : -1;
        StdoutCapture capture(capture_path);
        const auto a0 = Clock::now();
        std::string error;
        try {
            e->run(ctx);
        } catch (const std::exception &ex) {
            error = ex.what();
        }
        const std::string text = capture.finish();
        out.analysisS[e->name] = secondsSince(a0);
        if (log)
            log->close(span);
        digest.add(std::string(e->name));
        digest.add(text);
        if (!error.empty())
            out.jobs.fail(std::string("analysis ") + e->name, error);
    }
    ctx.runner().waitAll();
    out.wallS = secondsSince(t0);
    out.jobCpuS = otherThreadsCpuSeconds();

    for (const core::ExperimentResult &r : ctx.runner().results()) {
        if (!r.ok()) {
            out.jobs.addFailed(r.name, r.error);
            continue;
        }
        out.jobs.addOk(r.name, *r.exp);
        const uint64_t d = jobDigest(r.name, *r.exp);
        out.jobDigests[r.name] = d;
        digest.add(d);
    }
    out.digest = digest.hex();
    return out;
}

// ---------------------------------------------------------------- //
// Traced run                                                       //
// ---------------------------------------------------------------- //

/** Calls of one executor method and the host time spent in them. */
struct CallTally
{
    uint64_t calls = 0;
    double seconds = 0;
};

/** Executor callbacks aggregated per job: the workload and kernel
 *  layers inside Machine::run. */
struct ExecTally
{
    CallTally refill; ///< workload: script generation.
    CallTally marker; ///< kernel: marker items (paths, scheduler, locks).
    CallTally fault;  ///< kernel: VM/TLB faults.
    CallTally poll;   ///< kernel: interrupt delivery.
    uint64_t items = 0; ///< Script items pushed by refill.

    double
    childSeconds() const
    {
        return refill.seconds + marker.seconds + fault.seconds +
               poll.seconds;
    }

    void
    add(const ExecTally &o)
    {
        for (auto [to, from] : {std::pair{&refill, &o.refill},
                                {&marker, &o.marker},
                                {&fault, &o.fault},
                                {&poll, &o.poll}}) {
            to->calls += from->calls;
            to->seconds += from->seconds;
        }
        items += o.items;
    }
};

/**
 * Forwards every Executor call to the kernel and times it. Installed
 * after the Experiment is built (the Kernel constructor registers
 * itself with the machine) and before run().
 */
class TimingExecutor final : public sim::Executor
{
  public:
    TimingExecutor(sim::Executor &inner, sim::Machine &m, ExecTally &t)
        : inner(inner), mach(m), tally(t)
    {
    }

    void
    refill(sim::CpuId cpu) override
    {
        const uint64_t before = mach.cpu(cpu).script.size();
        const auto t0 = Clock::now();
        inner.refill(cpu);
        close(tally.refill, t0);
        const uint64_t after = mach.cpu(cpu).script.size();
        if (after > before)
            tally.items += after - before;
    }

    void
    marker(sim::CpuId cpu, const sim::ScriptItem &item) override
    {
        const auto t0 = Clock::now();
        inner.marker(cpu, item);
        close(tally.marker, t0);
    }

    void
    fault(sim::CpuId cpu, sim::Addr vaddr, bool is_store,
          bool is_prot) override
    {
        const auto t0 = Clock::now();
        inner.fault(cpu, vaddr, is_store, is_prot);
        close(tally.fault, t0);
    }

    void
    pollEvents(sim::CpuId cpu, sim::Cycle now) override
    {
        const auto t0 = Clock::now();
        inner.pollEvents(cpu, now);
        close(tally.poll, t0);
    }

    sim::Cycle
    nextEventAt(sim::CpuId cpu) const override
    {
        return inner.nextEventAt(cpu);
    }

  private:
    static void
    close(CallTally &s, Clock::time_point t0)
    {
        ++s.calls;
        s.seconds += secondsSince(t0);
    }

    sim::Executor &inner;
    sim::Machine &mach;
    ExecTally &tally;
};

/** Sums of the traced run, over every job and seed. */
struct LayerTotals
{
    ExecTally exec;
    double runS = 0, constructS = 0, constructMb = 0;
    double sinksS = 0;
    double tracedWallS = 0;
    std::map<std::string, double> analysisS;
    uint64_t resimEvents = 0, missesOs = 0, missesApp = 0, osOps = 0;
    double machineCycles = 0;
    uint64_t busTx = 0, osBusTx = 0;
    uint64_t syncUncached = 0, syncCached = 0, syncStallCycles = 0;
    double user = 0, kern = 0, idle = 0, stall = 0;
    double saveS = 0, restoreS = 0;
    uint64_t snapshotBytes = 0;

    /** Simulated statistics of one finished job. */
    void
    addStats(core::Experiment &e)
    {
        sim::Machine &m = e.machine();
        machineCycles += double(m.now());
        busTx += m.monitor().transactions();
        osBusTx += m.monitor().osTransactions();
        resimEvents += e.resim().recordedEvents();
        missesOs += e.misses().osTotal();
        missesApp += e.misses().appTotal();
        for (uint32_t op = 1; op < sim::numOsOps; ++op)
            osOps += e.osOpCount(sim::OsOp(op));
        const sim::CycleAccount a = e.account();
        user += double(a.user());
        kern += double(a.kernel());
        idle += double(a.idle());
        for (unsigned mode = 0; mode < 3; ++mode)
            stall += double(a.stall[mode]);
        const sim::SyncTransport &st = m.sync();
        const sim::SyncOpCounts ops = st.sumOps(st.numLocks());
        syncUncached += ops.uncachedOps;
        syncCached += ops.cachedOps;
        for (uint32_t c = 0; c < m.numCpus(); ++c)
            syncStallCycles += st.stallCycles(c);
    }
};

/**
 * One snapshot round trip of a finished job: save it, restore the
 * image into a freshly built experiment, and require the restored
 * state to save byte-identically. Returns an error or "".
 */
std::string
snapshotRoundTrip(const core::Experiment &exp,
                  const core::ExperimentConfig &cfg, LayerTotals &t,
                  SpanLog &log, int job_span)
{
    int s = log.open("snapshot.save", job_span);
    const std::vector<uint8_t> image = exp.saveSnapshot();
    t.saveS += log.close(s);
    t.snapshotBytes += image.size();

    core::Experiment copy(cfg);
    s = log.open("snapshot.restore", job_span);
    copy.restoreSnapshot(image);
    t.restoreS += log.close(s);
    return copy.saveSnapshot() == image
               ? ""
               : "restored snapshot does not re-save identically";
}

/** Twins per side and rounds for the sinks' cost. The twins of a
 *  round run at once, so both sides see the same host. */
constexpr int sinkTwins = 2;
constexpr int sinkRounds = 3;

/**
 * The miss sinks' cost in one job: run() CPU time of the job as
 * configured minus the same job with the classifier and every sink
 * off. Each round runs sinkTwins copies of each side at once and
 * takes the difference of the two sides' means; the result is the
 * median over sinkRounds rounds.
 */
double
sinksSeconds(const std::string &name, const core::ExperimentConfig &cfg,
             SpanLog &log, JobTotals &jobs)
{
    core::ExperimentConfig off = cfg;
    off.collectMisses = false;
    off.collectResim = false;
    std::vector<double> diffs;
    util::ThreadPool pool(2 * sinkTwins);
    for (int round = 0; round < sinkRounds; ++round) {
        std::vector<double> cpuS(2 * sinkTwins);
        std::vector<std::future<void>> done;
        for (int i = 0; i < 2 * sinkTwins; ++i) {
            done.push_back(pool.submit([&, i] {
                const bool on = i % 2 == 0;
                const int span = log.open(
                    name + (on ? " (sinks on)" : " (sinks off)"), -1);
                core::Experiment exp(on ? cfg : off);
                const double c0 = threadCpuSeconds();
                exp.run();
                cpuS[i] = threadCpuSeconds() - c0;
                log.close(span);
            }));
        }
        bool ok = true;
        for (auto &f : done) {
            try {
                f.get();
            } catch (const std::exception &e) {
                ok = false;
                jobs.fail(name + " (sinks twin)", e.what());
            }
        }
        if (!ok)
            return 0;
        double diff = 0;
        for (int i = 0; i < 2 * sinkTwins; ++i)
            diff += (i % 2 == 0 ? cpuS[i] : -cpuS[i]) / sinkTwins;
        diffs.push_back(diff);
    }
    return median(diffs);
}

/** The traced run of one seed's sweep. */
void
traceSweep(const std::vector<const bench::BenchEntry *> &sel,
           const std::string &capture_path, bool pair_sinks,
           LayerTotals &t, JobTotals &jobs, SpanLog &log,
           std::vector<std::string> &digests)
{
    const auto jobs0 = plannedJobs(sel);
    const size_t n = jobs0.size();
    std::vector<std::unique_ptr<core::Experiment>> exps(n);
    std::vector<int> spans(n);
    std::vector<ExecTally> tallies(n);
    std::vector<double> runS(n);
    std::vector<std::string> errors(n);

    // Build every job in order, holding each (as the sweep does), then
    // run them all on the sweep's thread count.
    const auto pass0 = Clock::now();
    for (size_t i = 0; i < n; ++i) {
        spans[i] = log.open(jobs0[i].first, -1);
        try {
            const double heap0 = heapInUseMb();
            const int s = log.open("construct", spans[i]);
            exps[i] = std::make_unique<core::Experiment>(jobs0[i].second);
            t.constructS += log.close(s);
            t.constructMb += heapInUseMb() - heap0;
        } catch (const std::exception &e) {
            errors[i] = e.what();
        }
    }
    {
        util::ThreadPool pool(hostJobs());
        std::vector<std::future<void>> done;
        for (size_t i = 0; i < n; ++i) {
            if (!exps[i])
                continue;
            done.push_back(pool.submit([&, i] {
                core::Experiment &e = *exps[i];
                TimingExecutor timer(e.kern(), e.machine(), tallies[i]);
                e.machine().setExecutor(&timer);
                const int s = log.open("run", spans[i]);
                try {
                    e.run();
                } catch (const std::exception &ex) {
                    errors[i] = ex.what();
                }
                runS[i] = log.close(s);
                e.machine().setExecutor(&e.kern());
            }));
        }
        for (auto &f : done)
            f.get();
    }
    t.tracedWallS += secondsSince(pass0);

    std::map<std::string, uint64_t> traced;
    for (size_t i = 0; i < n; ++i) {
        const std::string &name = jobs0[i].first;
        if (!errors[i].empty()) {
            jobs.addFailed(name, errors[i]);
        } else {
            core::Experiment &e = *exps[i];
            const bool ok = jobs.addOk(name, e);
            t.exec.add(tallies[i]);
            t.runS += runS[i];
            t.addStats(e);
            traced[name] = jobDigest(name, e);
            std::string err;
            try {
                err = snapshotRoundTrip(e, jobs0[i].second, t, log,
                                        spans[i]);
            } catch (const std::exception &ex) {
                err = std::string("snapshot round trip: ") + ex.what();
            }
            if (!err.empty()) {
                jobs.failed += ok;
                jobs.fail(name, err);
            }
        }
        exps[i].reset();
        log.close(spans[i]);
    }

    if (pair_sinks) {
        for (const auto &[name, cfg] : jobs0) {
            if (standardIndex(name) >= 0)
                t.sinksS += sinksSeconds(name, cfg, log, jobs);
        }
    }

    // The registry analyses, each timed once its jobs are done.
    const SweepResult sweep = runSweep(sel, capture_path, &log);
    for (const auto &[name, s] : sweep.analysisS) {
        t.analysisS[name] += s;
        t.tracedWallS += s;
    }
    for (const auto &[name, d] : sweep.jobDigests) {
        auto it = traced.find(name);
        if (it != traced.end() && it->second != d)
            jobs.fail(name, "simulated statistics differ between the "
                            "traced run and the sweep");
    }
    jobs.merge(sweep.jobs);
    digests.push_back(sweep.digest);
}

// ---------------------------------------------------------------- //
// Report                                                           //
// ---------------------------------------------------------------- //

/** Writes one JSON object of {"name": {"value": v, "unit": u}}. */
class MetricWriter
{
  public:
    explicit MetricWriter(FILE *out) : f(out) { std::fprintf(f, "{"); }

    void
    add(const std::string &name, double v, const char *unit)
    {
        std::fprintf(f, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                     sep, name.c_str(), v, unit);
        sep = ", ";
    }

    void end() { std::fprintf(f, "}"); }

  private:
    FILE *f;
    const char *sep = "";
};

double
ratio(double num, double den)
{
    return den ? num / den : 0;
}

void
addLayers(MetricWriter &m, const LayerTotals &t,
          const std::vector<const char *> &analysis_names)
{
    const ExecTally &x = t.exec;
    const double all = t.user + t.kern + t.idle;
    double analysisS = 0;
    for (const auto &[name, s] : t.analysisS)
        analysisS += s;
    m.add("trace.wall_s", t.tracedWallS, "s");
    m.add("workload.refill_calls", double(x.refill.calls), "count");
    m.add("workload.refill_s", x.refill.seconds, "s");
    m.add("workload.items", double(x.items), "count");
    m.add("workload.items_per_refill",
          ratio(double(x.items), double(x.refill.calls)), "items/call");
    m.add("kernel.marker_calls", double(x.marker.calls), "count");
    m.add("kernel.marker_s", x.marker.seconds, "s");
    m.add("kernel.fault_calls", double(x.fault.calls), "count");
    m.add("kernel.fault_s", x.fault.seconds, "s");
    m.add("kernel.poll_calls", double(x.poll.calls), "count");
    m.add("kernel.poll_s", x.poll.seconds, "s");
    m.add("kernel.os_ops", double(t.osOps), "count");
    m.add("kernel.sys_cycle_share", ratio(t.kern, all), "ratio");
    m.add("sim.core_self_s", t.runS - x.childSeconds(), "s");
    m.add("sim.bus_transactions", double(t.busTx), "count");
    m.add("sim.os_bus_transactions", double(t.osBusTx), "count");
    m.add("sim.bus_per_kcycle",
          1000.0 * ratio(double(t.busTx), t.machineCycles), "1/kcycle");
    m.add("sim.sync_ops_uncached", double(t.syncUncached), "count");
    m.add("sim.sync_ops_cached", double(t.syncCached), "count");
    m.add("sim.sync_stall_cycles", double(t.syncStallCycles), "cycles");
    m.add("sim.stall_share", ratio(t.stall, all), "ratio");
    m.add("sim.idle_share", ratio(t.idle, all), "ratio");
    m.add("core.construct_s", t.constructS, "s");
    m.add("core.construct_rss_mb", t.constructMb, "MB");
    m.add("core.sinks_s", t.sinksS, "s");
    m.add("core.misses_os", double(t.missesOs), "count");
    m.add("core.misses_app", double(t.missesApp), "count");
    auto analysis = [&](const std::string &name) {
        auto it = t.analysisS.find(name);
        return it == t.analysisS.end() ? 0.0 : it->second;
    };
    m.add("core.resim_s", analysis("fig06_icache_sweep"), "s");
    m.add("core.resim_events", double(t.resimEvents), "count");
    m.add("core.analysis_s", analysisS, "s");
    for (const char *name : analysis_names)
        m.add(std::string("core.analysis.") + name + "_s",
              analysis(name), "s");
    m.add("snapshot.save_s", t.saveS, "s");
    m.add("snapshot.restore_s", t.restoreS, "s");
    m.add("snapshot.bytes", double(t.snapshotBytes), "B");
}

void
printJobs(FILE *f, const JobTotals &j)
{
    std::fprintf(f, "\"attempted\": %zu, \"failed\": %zu, \"errors\": [",
                 j.attempted, j.failed);
    for (size_t i = 0; i < j.errors.size(); ++i)
        std::fprintf(f, "%s\"%s\"", i ? ", " : "",
                     util::jsonEscape(j.errors[i]).c_str());
    std::fprintf(f, "]");
}

struct Options
{
    std::string workload;
    std::string mode;
    std::vector<uint64_t> seeds;
    std::string scratch;
    bool shortRun = false;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usageError(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = value();
        else if (a == "--mode")
            o.mode = value();
        else if (a == "--seed")
            o.seeds.push_back(std::strtoull(value().c_str(), nullptr, 10));
        else if (a == "--scratch")
            o.scratch = value();
        else if (a == "--short")
            o.shortRun = true;
        else
            usageError("unknown argument " + a);
    }
    if (o.workload.empty() || o.seeds.empty() || o.scratch.empty())
        usageError("--workload, --seed and --scratch are required");
    if (o.mode != "setup" && o.mode != "sweep" && o.mode != "traced")
        usageError("--mode must be setup, sweep or traced");
    if (o.mode != "traced" && o.seeds.size() != 1)
        usageError("--mode " + o.mode + " takes one --seed");
    return o;
}

/** Unset every MPOS_* switch (checker, trace, metrics, profiler,
 *  faults, warm cache, slow-sim mode, job and cycle counts). */
void
clearLibraryEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        if (!std::strncmp(*e, "MPOS_", 5))
            names.emplace_back(*e, std::strcspn(*e, "="));
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
}

void
setSeed(uint64_t seed)
{
    setenv("MPOS_SEED", std::to_string(seed).c_str(), 1);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const Workload &w = workloadNamed(opt.workload);
    clearLibraryEnvironment();
    for (const auto &[name, value] : w.env)
        setenv(name, value, 1);
    if (opt.shortRun) {
        // 1/40 of the standard 20 M / 8 M cycles.
        setenv("MPOS_CYCLES", "500000", 1);
        setenv("MPOS_WARMUP", "200000", 1);
    }
    const auto sel = registryEntries(w);
    const std::string capturePath = opt.scratch + "/analysis-" +
                                    opt.workload + "-" +
                                    std::to_string(getpid()) + ".out";
    FILE *f = stdout;

    if (opt.mode == "setup") {
        setSeed(opt.seeds[0]);
        JobTotals jobs;
        double setupS = 0;
        std::vector<std::unique_ptr<core::Experiment>> held;
        for (const auto &[name, cfg] : plannedJobs(sel)) {
            ++jobs.attempted;
            try {
                const auto t0 = Clock::now();
                held.push_back(std::make_unique<core::Experiment>(cfg));
                setupS += secondsSince(t0);
            } catch (const std::exception &e) {
                ++jobs.failed;
                jobs.fail(name, e.what());
            }
        }
        std::fprintf(f, "{\"mode\": \"setup\", ");
        printJobs(f, jobs);
        std::fprintf(f, ", \"setup_s\": %.9g}\n", setupS);
        return 0;
    }

    if (opt.mode == "sweep") {
        setSeed(opt.seeds[0]);
        const SweepResult r = runSweep(sel, capturePath, nullptr);
        std::remove(capturePath.c_str());
        std::fprintf(f, "{\"mode\": \"sweep\", ");
        printJobs(f, r.jobs);
        std::fprintf(f,
                     ", \"digest\": \"%s\", \"wall_s\": %.9g, "
                     "\"job_cpu_s\": %.9g, \"cpu_cycles\": %.17g, "
                     "\"bus_tx\": %llu, \"peak_rss_mb\": %.9g, "
                     "\"paper_err_sum\": %.17g, \"paper_err_n\": %u}\n",
                     r.digest.c_str(), r.wallS, r.jobCpuS, r.jobs.cpuCycles,
                     (unsigned long long)r.jobs.busTx,
                     procStatusKb("VmHWM") / 1024.0, r.jobs.paperErrSum,
                     r.jobs.paperErrN);
        return 0;
    }

    LayerTotals totals;
    JobTotals jobs;
    SpanLog spans;
    std::vector<std::string> digests;
    for (size_t i = 0; i < opt.seeds.size(); ++i) {
        setSeed(opt.seeds[i]);
        traceSweep(sel, capturePath, i == 0, totals, jobs, spans,
                   digests);
    }
    std::remove(capturePath.c_str());
    std::fprintf(f, "{\"mode\": \"traced\", ");
    printJobs(f, jobs);
    std::fprintf(f, ", \"digests\": [");
    for (size_t i = 0; i < digests.size(); ++i)
        std::fprintf(f, "%s\"%s\"", i ? ", " : "", digests[i].c_str());
    std::fprintf(f, "], \"spans\": ");
    spans.write(f);
    std::fprintf(f, ", \"metrics\": ");
    MetricWriter m(f);
    addLayers(m, totals, workloadNamed("paper4").analyses);
    m.end();
    std::fprintf(f, "}\n");
    return 0;
}
