#include "sim/machine.hh"

#include <bit>

#include "util/error.hh"
#include "util/logging.hh"

namespace mpos::sim
{

Machine::Machine(const MachineConfig &config, uint32_t num_locks)
    : cfg(validateConfig(config)), mem(cfg, mon),
      syncTransport(cfg, num_locks),
      pageShift(uint32_t(std::countr_zero(cfg.pageBytes))),
      pageMask(Addr(cfg.pageBytes) - 1),
      lineExecCycles(Cycle(cfg.instrPerLine) * cfg.cyclesPerInstr),
      slowSim(cfg.slowSim || slowSimForced())
{
    cpus.reserve(cfg.numCpus);
    for (CpuId c = 0; c < cfg.numCpus; ++c)
        cpus.emplace_back(c, cfg);

    if (cfg.check || checkForced()) {
        chk = std::make_unique<Checker>(cfg);
        chk->attachMemory(&mem);
        mem.setChecker(chk.get());
        syncTransport.setChecker(chk.get());
        // As a monitor observer the checker sees the full event stream
        // (and keeps listening() true, so records are always built).
        mon.attach(chk.get());
    }

    const uint64_t fault_seed =
        cfg.faultSeed ? cfg.faultSeed : faultForcedSeed();
    Cycle wd_cycles =
        cfg.watchdogCycles ? cfg.watchdogCycles : watchdogForcedCycles();
    if (fault_seed) {
        plan = std::make_unique<FaultPlan>(fault_seed, cfg.faultHorizon);
        // Faulted runs want their hangs diagnosed, not waited out: a
        // default budget far above any legitimate reference-free
        // stretch (Think bursts are tens to hundreds of cycles).
        if (!wd_cycles)
            wd_cycles = 1000000;
    }
    if (wd_cycles) {
        wd = std::make_unique<Watchdog>(cfg, wd_cycles);
        wdp = wd.get();
        syncTransport.setWatchdog(wdp);
        // Observer role: bus settles count as progress. Event history
        // for the dump comes from the shared trace ring (below).
        mon.attach(wdp);
        if (plan && plan->syntheticTripAt)
            wd->forceTripAt(plan->syntheticTripAt);
    }

    // Observability layer: trace exporter, metrics engine, profiler.
    // Each follows the checker discipline -- allocated only when
    // enabled, raw alias pointer as the hot-path null gate.
    if (cfg.trace || traceForced()) {
        const uint64_t forced_ring = traceRingForcedEntries();
        tr = std::make_unique<trace::Tracer>(
            forced_ring ? forced_ring : cfg.traceRingEntries,
            cfg.traceFile, cfg.traceRingMode);
        trp = tr.get();
        mon.attach(trp);
    } else if (wdp) {
        // The watchdog's dump renders the last monitor events; without
        // a full tracer, keep a small ring-only tracer so the dump and
        // any future trace read the same buffer.
        tr = std::make_unique<trace::Tracer>(32, "", false);
        trp = tr.get();
        mon.attach(trp);
    }
    if (wdp && trp)
        wdp->setEventRing(&trp->ring());

    const Cycle mx_window = metricsForcedWindow();
    if (cfg.metrics || mx_window) {
        mx = std::make_unique<trace::Metrics>(
            mx_window > 1 ? mx_window : cfg.metricsWindowCycles);
        mxp = mx.get();
        mon.attach(mxp);
    }

    if (cfg.profile || profileForced()) {
        pf = std::make_unique<trace::Profiler>(cfg.numCpus,
                                               cfg.busMissStall);
        pfp = pf.get();
        mon.attach(pfp);
    }
}

CycleAccount
Machine::totalAccount() const
{
    CycleAccount sum;
    for (const auto &c : cpus) {
        for (unsigned m = 0; m < 3; ++m) {
            sum.total[m] += c.account.total[m];
            sum.stall[m] += c.account.stall[m];
        }
    }
    return sum;
}

bool
Machine::step(Cpu &c, Cycle now)
{
    // The item is only popped once it is consumed: a faulting reference
    // stays at its queue position and the fault handler's script is
    // prepended in front of it, which is what the old pop + re-push
    // produced. A reference is safe here: pop_front only advances the
    // head index, and nothing below pushes to this queue -- except the
    // marker and fault callbacks, which get a copy / never reread it.
    const ScriptItem &item = c.script.front();

    switch (item.kind) {
      case ItemKind::Marker: {
        const ScriptItem m = item;
        c.script.pop_front();
        exec->marker(c.id, m);
        return false;
      }

      case ItemKind::Think:
        c.script.pop_front();
        c.charge(item.addr, 0);
        return true;

      case ItemKind::IFetchLine: {
        Addr pa = item.addr;
        if (item.space == AddrSpace::Virtual &&
            !translate(c, item.addr, false, pa)) {
            return false;
        }
        c.script.pop_front();
        const AccessResult r = mem.ifetchAccess(c.id, pa, now, c.ctx);
        c.charge(lineExecCycles, r.cycles - lineExecCycles);
        if (wdp)
            wdp->noteProgress();
        return true;
      }

      case ItemKind::Load:
      case ItemKind::Store: {
        const bool is_store = item.kind == ItemKind::Store;
        Addr pa = item.addr;
        if (item.space == AddrSpace::Virtual &&
            !translate(c, item.addr, is_store, pa)) {
            return false;
        }
        c.script.pop_front();
        const AccessResult r =
            mem.dataAccess(c.id, pa, is_store, now, c.ctx);
        c.charge(1, r.cycles - 1);
        if (wdp)
            wdp->noteProgress();
        return true;
      }

      case ItemKind::BypassLoad:
      case ItemKind::BypassStore: {
        const bool is_store = item.kind == ItemKind::BypassStore;
        Addr pa = item.addr;
        if (item.space == AddrSpace::Virtual &&
            !translate(c, item.addr, is_store, pa)) {
            return false;
        }
        c.script.pop_front();
        const AccessResult r =
            mem.bypassAccess(c.id, pa, is_store, now, c.ctx);
        c.charge(1, r.cycles - 1);
        if (wdp)
            wdp->noteProgress();
        return true;
      }

      case ItemKind::PrefetchLoad:
      case ItemKind::PrefetchStore: {
        // The reference behaves normally in the caches and on the bus,
        // but a prefetch engine issued it early, so the CPU does not
        // stall on it.
        const bool is_store = item.kind == ItemKind::PrefetchStore;
        Addr pa = item.addr;
        if (item.space == AddrSpace::Virtual &&
            !translate(c, item.addr, is_store, pa)) {
            return false;
        }
        c.script.pop_front();
        mem.dataAccess(c.id, pa, is_store, now, c.ctx);
        c.charge(1, 0);
        if (wdp)
            wdp->noteProgress();
        return true;
      }

      case ItemKind::UncachedLoad:
      case ItemKind::UncachedStore: {
        const bool is_store = item.kind == ItemKind::UncachedStore;
        c.script.pop_front();
        const AccessResult r =
            mem.uncachedAccess(c.id, item.addr, is_store, now, c.ctx);
        c.charge(1, r.cycles - 1);
        if (wdp)
            wdp->noteProgress();
        return true;
      }
    }
    util::panic("unhandled script item kind");
}

void
Machine::activate(Cpu &c)
{
    if (currentCycle >= c.nextPollAt) {
        c.nextPollAt = currentCycle + pollPeriod;
        if (c.intrDisable == 0 && c.ctx.mode != ExecMode::Kernel)
            exec->pollEvents(c.id, currentCycle);
    }

    uint32_t markers = 0;
    // Execute until the CPU has consumed this cycle.
    while (c.busyUntil <= currentCycle) {
        if (c.script.empty()) {
            exec->refill(c.id);
            if (c.script.empty())
                util::panic("executor refill pushed no work for cpu %u",
                            c.id);
        }
        if (!step(c, currentCycle)) {
            if (++markers > markerBudget) {
                // Runaway marker chain; let time advance.
                c.charge(1, 0);
                break;
            }
        }
    }
}

void
Machine::runFast(Cycle target)
{
    while (currentCycle < target) {
        // The same pass that executes free CPUs also collects the
        // minimum busyUntil for the cycle skip below. A CPU's busyUntil
        // can still rise after being sampled (a later CPU's kernel work
        // may charge it), which only makes the sampled minimum too
        // small: jumping to a cycle where nothing is ready is a no-op
        // pass, never a semantic difference.
        Cycle next = target;
        for (Cpu &c : cpus) {
            if (c.busyUntil <= currentCycle)
                activate(c);
            if (c.busyUntil < next)
                next = c.busyUntil;
        }

        // Cycle skip: a CPU only acts at cycles where busyUntil <= now,
        // and busyUntil never decreases, so the next cycle at which
        // anything can happen is the minimum busyUntil. Polling cannot
        // wake a CPU early: pollEvents only fires when the CPU is
        // already free. Jump straight there (clamped so a runaway
        // marker chain that left busyUntil behind still advances one
        // tick at a time, exactly as the reference loop does).
        currentCycle = next > currentCycle ? next : currentCycle + 1;

        if (wdp)
            wdp->poll(*this, currentCycle);
    }
}

void
Machine::runReference(Cycle target)
{
    // The original algorithm, kept byte-for-byte as the golden
    // reference: tick one cycle at a time and rescan every CPU.
    while (currentCycle < target) {
        for (Cpu &c : cpus) {
            if (c.busyUntil > currentCycle)
                continue;
            activate(c);
        }
        ++currentCycle;

        if (wdp)
            wdp->poll(*this, currentCycle);
    }
}

void
Machine::run(Cycle cycles)
{
    if (!exec)
        util::raise(util::ErrCode::BadConfig,
                    "Machine::run called with no executor installed");

    const Cycle target = currentCycle + cycles;
    if (slowSim)
        runReference(target);
    else
        runFast(target);
}

void
Machine::saveState(util::ByteWriter &w) const
{
    w.u64(currentCycle);
    w.u32(uint32_t(cpus.size()));
    for (const Cpu &c : cpus) {
        w.u8(uint8_t(c.ctx.mode));
        w.u8(uint8_t(c.ctx.op));
        w.u16(c.ctx.routine);
        w.i64(c.ctx.pid);
        w.u64(c.busyUntil);
        w.u64(c.nextPollAt);
        w.u32(c.intrDisable);
        for (unsigned m = 0; m < 3; ++m) {
            w.u64(c.account.total[m]);
            w.u64(c.account.stall[m]);
        }
        c.tlb.saveState(w);
        c.script.saveState(w);
    }
    mem.saveState(w);
    syncTransport.saveState(w);
    w.u64(mon.transactions());
    w.u64(mon.osTransactions());
    w.b(plan != nullptr);
    if (plan)
        plan->saveState(w);
}

void
Machine::restoreState(util::ByteReader &r)
{
    currentCycle = r.u64();
    const uint32_t n = r.u32();
    if (n != cpus.size())
        util::raise(util::ErrCode::SnapshotCorrupt,
                    "machine: snapshot has %u cpus, machine has %zu",
                    n, cpus.size());
    for (Cpu &c : cpus) {
        c.ctx.mode = ExecMode(r.u8());
        c.ctx.op = OsOp(r.u8());
        c.ctx.routine = r.u16();
        c.ctx.pid = Pid(r.i64());
        c.busyUntil = r.u64();
        c.nextPollAt = r.u64();
        c.intrDisable = r.u32();
        for (unsigned m = 0; m < 3; ++m) {
            c.account.total[m] = r.u64();
            c.account.stall[m] = r.u64();
        }
        c.tlb.restoreState(r);
        c.script.restoreState(r);
    }
    mem.restoreState(r);
    syncTransport.restoreState(r);
    const uint64_t tx = r.u64();
    const uint64_t txos = r.u64();
    mon.restoreCounters(tx, txos);
    const bool had_plan = r.b();
    if (had_plan != (plan != nullptr))
        util::raise(util::ErrCode::SnapshotCorrupt,
                    "machine: snapshot %s a fault plan, machine %s",
                    had_plan ? "has" : "lacks",
                    plan ? "has one" : "has none");
    if (plan)
        plan->restoreState(r);
    // Anything the checker inferred from events preceding the restore
    // (notably the kernel-boot idle enters emitted before observers
    // could see them) describes a history this machine never lived.
    if (chk)
        chk->onRestore();
}

} // namespace mpos::sim
