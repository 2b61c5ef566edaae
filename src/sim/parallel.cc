#include "sim/parallel.hh"

#include <algorithm>

#include "sim/machine.hh"
#include "util/logging.hh"

namespace mpos::sim
{

namespace
{

/** Probe keys for per-cache touched sets (cache id in the top bits). */
constexpr uint64_t kIc = uint64_t(1) << 60;
constexpr uint64_t kL1 = uint64_t(2) << 60;
constexpr uint64_t kL2 = uint64_t(3) << 60;

} // namespace

ParallelCore::ParallelCore(Machine &machine, uint32_t num_threads)
    : m(machine), nThreads(num_threads), serialChunk(minSerialChunk)
{
    const uint32_t ncpu = uint32_t(m.cpus.size());
    workers = std::vector<Worker>(nThreads);
    probes.resize(ncpu);
    for (uint32_t w = 0; w < nThreads; ++w) {
        for (CpuId c = w; c < ncpu; c += nThreads)
            workers[w].caps.emplace_back(workers[w].arena);
    }
    gang.reserve(nThreads - 1);
    for (uint32_t w = 1; w < nThreads; ++w)
        gang.emplace_back([this, w] { workerMain(w); });
}

ParallelCore::~ParallelCore()
{
    phase = Phase::Stop;
    epoch.fetch_add(1, std::memory_order_release);
    epoch.notify_all();
    for (std::thread &t : gang)
        t.join();
}

void
ParallelCore::workerMain(uint32_t w)
{
    uint64_t seen = 0;
    for (;;) {
        uint64_t e = epoch.load(std::memory_order_acquire);
        while (e == seen) {
            epoch.wait(e, std::memory_order_acquire);
            e = epoch.load(std::memory_order_acquire);
        }
        seen = e;
        const Phase p = phase;
        if (p == Phase::Stop)
            return;
        doPhase(p, w);
        if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
            pending.notify_one();
    }
}

void
ParallelCore::runPhase(Phase p)
{
    phase = p;
    pending.store(nThreads - 1, std::memory_order_relaxed);
    epoch.fetch_add(1, std::memory_order_release);
    epoch.notify_all();
    doPhase(p, 0);
    uint32_t left = pending.load(std::memory_order_acquire);
    while (left != 0) {
        pending.wait(left, std::memory_order_acquire);
        left = pending.load(std::memory_order_acquire);
    }
}

void
ParallelCore::doPhase(Phase p, uint32_t w)
{
    Worker &wk = workers[w];
    const uint32_t ncpu = uint32_t(m.cpus.size());
    if (p == Phase::Probe) {
        for (CpuId c = w; c < ncpu; c += nThreads)
            probeCpu(c, wk, probes[c]);
        return;
    }
    // Commit: previous window's captures were already replayed, so
    // the arena backing them can be recycled wholesale.
    wk.arena.reset();
    uint32_t slot = 0;
    for (CpuId c = w; c < ncpu; c += nThreads) {
        wk.caps[slot] = WindowCapture(wk.arena);
        commitCpu(c, wk, wk.caps[slot]);
        ++slot;
    }
}

void
ParallelCore::probeCpu(CpuId cpu, Worker &w, ProbeResult &out)
{
    Cpu &c = m.cpus[cpu];
    MemorySystem &mem = m.mem;
    const MachineConfig &cfg = m.cfg;
    CpuCaches &h = mem.caches(cpu);

    out.footprint.clear();
    out.writeSet.clear();
    out.committed = 0;

    const Addr lineMask = ~Addr(cfg.lineBytes - 1);
    const uint64_t ownBit = uint64_t(1) << cpu;
    const Cycle lineExec = m.lineExecCycles;

    auto &touched = w.touchedSets;
    auto &changed = w.stateChanged;
    touched.clear();
    changed.clear();

    Cycle t = c.busyUntil;
    uint32_t foot = 0;

    const auto addFoot = [&](Addr line) {
        out.footprint.push_back(line);
        ++foot;
    };
    const auto addWrite = [&](Addr line) {
        out.writeSet.push_back(line);
        ++foot;
    };
    /** Every line the probed fill could displace from the L2 set: its
     *  sharers bit is cleared on eviction, so it is a potential
     *  write. Lines filled earlier in the window (the other possible
     *  victims) are already in the write set. */
    const auto addVictims = [&](Addr line) {
        h.l2d.forEachInSet(h.l2d.setOf(line),
                           [&](Addr v) { addWrite(v); });
    };

    /** Data reference; false = the window must cut before it.
     *  prefetch: the CPU charge is exactly one cycle regardless of
     *  the outcome, so the duration is exact even when the
     *  classification is conservative. */
    const auto dataRef = [&](Addr pa, bool is_store,
                             bool prefetch) -> bool {
        const Addr line = pa & lineMask;
        const uint64_t l1k = kL1 | h.l1d.setOf(line);
        const uint64_t l2k = kL2 | h.l2d.setOf(line);
        const uint64_t remote = mem.sharersMask(line) & ~ownBit;
        if (changed.count(line) || touched.count(l1k) ||
            touched.count(l2k)) {
            // An earlier probed fill may have changed what this
            // reference hits. Duration: hit lower bound. Side
            // effects: everything a miss could do.
            if (remote || !mem.sharersAllocated(line))
                return false;
            addWrite(line);
            addVictims(line);
            touched.insert(l1k);
            touched.insert(l2k);
            changed.insert(line);
            t += 1;
            return true;
        }
        const bool l1hit = h.l1d.contains(line);
        const bool l2hit = l1hit || h.l2d.contains(line);
        if (!l2hit) {
            // Fill: reads the sharers mask, sets our bit, may evict.
            // A fill that would allocate a snoop-filter chunk cuts.
            if (remote || !mem.sharersAllocated(line))
                return false;
            addFoot(line);
            addWrite(line);
            addVictims(line);
            touched.insert(l1k);
            touched.insert(l2k);
            changed.insert(line);
            t += prefetch ? 1 : 1 + cfg.busMissStall;
            return true;
        }
        Cycle dur = 1;
        if (!l1hit) {
            dur += cfg.l2HitStall;
            touched.insert(l1k); // L1 fill displaces locally
        }
        if (is_store) {
            if (h.getState(line) == Coh::Shared) {
                // Upgrade: with remote copies it invalidates them;
                // without, it is a lone captured bus record.
                if (remote)
                    return false;
                dur += cfg.busMissStall;
            }
            addWrite(line); // sharers |= ownBit and the state write
            changed.insert(line);
        }
        // Load hits read no shared metadata: no footprint entry.
        t += prefetch ? 1 : dur;
        return true;
    };

    /** Instruction-line fetch; false = cut. */
    const auto ifetchRef = [&](Addr pa) -> bool {
        const Addr line = pa & lineMask;
        const uint64_t ick = kIc | h.icache.setOf(line);
        const bool unknown = touched.count(ick) != 0;
        if (!unknown && h.icache.contains(line)) {
            t += lineExec;
            return true;
        }
        // Miss (or cannot tell): snoopRead reads the sharers mask and
        // would downgrade remote D-copies -- only safe with none.
        if (mem.sharersMask(line) & ~ownBit)
            return false;
        addFoot(line);
        touched.insert(ick); // the fill displaces an I-line (local)
        t += unknown ? lineExec : lineExec + cfg.busMissStall;
        return true;
    };

    /** Probe-time translation; false = a fault would cut here. The
     *  TLB cannot change inside a window (kernel paths are cut), so
     *  the commit-time translation provably agrees. */
    const auto vtranslate = [&](Addr vaddr, bool is_store,
                                Addr &pa) -> bool {
        const TlbEntry *e =
            c.tlb.lookup(c.ctx.pid, vaddr >> m.pageShift);
        if (!e || (is_store && !e->writable))
            return false;
        pa = (e->ppage << m.pageShift) | (vaddr & m.pageMask);
        return true;
    };

    const uint64_t n = c.script.size();
    uint64_t i = 0;
    for (;
         t < probeLimit && i < n && i < maxProbeItems &&
         foot < maxFootprintLines;
         ++i) {
        const ScriptItem &it = c.script.at(i);
        Addr pa = it.addr;
        bool safe = false;
        switch (it.kind) {
          case ItemKind::Think:
            t += it.addr;
            safe = true;
            break;
          case ItemKind::IFetchLine:
            if (it.space != AddrSpace::Virtual ||
                vtranslate(it.addr, false, pa))
                safe = ifetchRef(pa);
            break;
          case ItemKind::Load:
          case ItemKind::Store: {
            const bool st_ = it.kind == ItemKind::Store;
            if (it.space != AddrSpace::Virtual ||
                vtranslate(it.addr, st_, pa))
                safe = dataRef(pa, st_, false);
            break;
          }
          case ItemKind::PrefetchLoad:
          case ItemKind::PrefetchStore: {
            const bool st_ = it.kind == ItemKind::PrefetchStore;
            if (it.space != AddrSpace::Virtual ||
                vtranslate(it.addr, st_, pa))
                safe = dataRef(pa, st_, true);
            break;
          }
          default:
            // Marker, uncached, bypass: executor / device / snoop
            // interaction -- always a window cut.
            safe = false;
            break;
        }
        if (!safe)
            break;
    }
    out.cutAt = t;
}

void
ParallelCore::commitCpu(CpuId cpu, Worker &w, WindowCapture &cap)
{
    (void)w;
    Cpu &c = m.cpus[cpu];
    const Cycle wend = windowEnd;
    uint64_t items = 0;

    MemorySystem::setWindowCapture(&cap);
    while (c.busyUntil < wend) {
        // The lockstep scheduler activates a CPU exactly when the
        // global cycle reaches its busyUntil (jump targets are
        // sampled minima, and nothing inside a window charges a
        // foreign CPU), so committing at now = busyUntil replicates
        // the serial activation times and event stamps bit for bit.
        const Cycle now = c.busyUntil;
        if (now >= c.nextPollAt) {
            // The window is capped at the executor's nextEventAt()
            // for every poll-eligible CPU, making the poll itself a
            // provable no-op; only the schedule advance remains.
            c.nextPollAt = now + Machine::pollPeriod;
        }
        if (c.script.empty())
            util::panic("parallel window ran past its probed script");
        const ItemKind k = c.script.front().kind;
        if (k == ItemKind::Marker || k == ItemKind::UncachedLoad ||
            k == ItemKind::UncachedStore || k == ItemKind::BypassLoad ||
            k == ItemKind::BypassStore)
            util::panic("parallel window reached an unprobed item kind");
        if (!m.step(c, now))
            util::panic("parallel window hit a fault the probe missed");
        ++items;
    }
    MemorySystem::setWindowCapture(nullptr);
    probes[cpu].committed = items;
}

void
ParallelCore::mergeAndReplay()
{
    // K-way merge of the per-CPU captures by (cycle, cpu): the serial
    // scheduler delivers same-cycle activations in ascending CPU id,
    // and each capture is already in that CPU's issue order.
    struct Cursor
    {
        const WindowCapture *cap;
        size_t i;
        CpuId cpu;
    };
    Cursor curs[64];
    uint32_t ncur = 0;
    for (uint32_t w = 0; w < nThreads; ++w) {
        uint32_t slot = 0;
        for (CpuId c = w; c < uint32_t(m.cpus.size()); c += nThreads) {
            const WindowCapture &cap = workers[w].caps[slot++];
            if (!cap.events.empty())
                curs[ncur++] = {&cap, 0, c};
        }
    }
    while (ncur) {
        uint32_t best = 0;
        for (uint32_t k = 1; k < ncur; ++k) {
            const auto &a = curs[k].cap->events[curs[k].i].rec;
            const auto &b = curs[best].cap->events[curs[best].i].rec;
            if (a.cycle < b.cycle ||
                (a.cycle == b.cycle && curs[k].cpu < curs[best].cpu))
                best = k;
        }
        const WindowCapture::Event &ev =
            curs[best].cap->events[curs[best].i];
        if (ev.isEvict)
            m.mem.replayEvict(ev);
        else
            m.mem.replayBus(ev.rec);
        if (++curs[best].i == curs[best].cap->events.size())
            curs[best] = curs[--ncur];
    }
}

bool
ParallelCore::tryWindow(Cycle target)
{
    const Cycle start = m.currentCycle;
    Cycle limit = std::min(target, start + epochCycles);
    for (Cpu &c : m.cpus) {
        // Cap at the next point an interrupt poll could act, so every
        // poll inside the window is a no-op. Kernel-mode or
        // interrupt-disabled CPUs never poll (and cannot change
        // eligibility inside a window: that takes a marker, which
        // cuts).
        if (c.intrDisable == 0 && c.ctx.mode != ExecMode::Kernel)
            limit = std::min(limit, m.exec->nextEventAt(c.id));
    }
    if (limit < start + minWindowCycles)
        return false;

    probeLimit = limit;
    runPhase(Phase::Probe);

    Cycle wend = limit;
    for (const ProbeResult &p : probes)
        wend = std::min(wend, p.cutAt);
    if (wend < start + minWindowCycles) {
        ++st.shortAborts;
        return false;
    }

    // Ordered conflict rule: a window is only safe if no CPU writes a
    // line's shared metadata (sharers mask, coherence state) that any
    // other CPU reads or writes. Concurrent read-hits on a line are
    // fine; a store hit writes the line's state (and an L2-hit store
    // rewrites its sharers mask), which is why every store line is in
    // its write set.
    accessMap.clear();
    for (CpuId c = 0; c < uint32_t(m.cpus.size()); ++c) {
        const uint64_t bit = uint64_t(1) << c;
        for (Addr line : probes[c].footprint)
            accessMap[line].first |= bit;
        for (Addr line : probes[c].writeSet) {
            auto &e = accessMap[line];
            e.first |= bit;
            e.second |= bit;
        }
    }
    for (const auto &kv : accessMap) {
        const uint64_t readers = kv.second.first;
        const uint64_t writers = kv.second.second;
        if (!writers)
            continue;
        if ((writers & (writers - 1)) || (readers & ~writers)) {
            ++st.conflictAborts;
            return false;
        }
    }

    windowEnd = wend;
    runPhase(Phase::Commit);
    mergeAndReplay();

    Cycle next = target;
    for (Cpu &c : m.cpus)
        next = std::min(next, c.busyUntil);
    m.currentCycle = next;

    ++st.windows;
    st.windowCycles += next - start;
    for (const ProbeResult &p : probes)
        st.windowItems += p.committed;
    return true;
}

void
ParallelCore::run(Cycle target)
{
    while (m.currentCycle < target) {
        if (tryWindow(target)) {
            serialChunk = minSerialChunk;
            continue;
        }
        // Contended or short window: fall back to the lockstep fast
        // path for an adaptively growing chunk so repeated failures
        // do not pay the probe overhead every kilocycle.
        ++st.serialChunks;
        m.runFast(std::min(target, m.currentCycle + serialChunk));
        if (serialChunk < maxSerialChunk)
            serialChunk *= 2;
    }
}

} // namespace mpos::sim
