/** @file End-to-end experiments asserting the paper's shape claims.
 *
 *  These run shortened measurements (a few million cycles), so the
 *  assertions are deliberately loose envelopes around the paper's
 *  numbers; the bench binaries reproduce the tables at full length.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include "core/experiment.hh"
#include "core/migration.hh"

using namespace mpos;
using namespace mpos::core;
using workload::WorkloadKind;

namespace
{

std::unique_ptr<Experiment>
quickRun(WorkloadKind kind, sim::Cycle cycles = 8000000,
         bool resim = false)
{
    ExperimentConfig cfg;
    cfg.kind = kind;
    cfg.warmupCycles = 4000000;
    cfg.measureCycles = cycles;
    cfg.collectResim = resim;
    auto e = std::make_unique<Experiment>(cfg);
    e->run();
    return e;
}

} // namespace

TEST(Experiment, PmakeShape)
{
    auto e = quickRun(WorkloadKind::Pmake);
    const auto t1 = e->table1();
    const auto &mc = e->misses();

    // The headline claims, as generous envelopes.
    EXPECT_GT(t1.sysPct, 15.0);  // OS is a large share of time
    EXPECT_LT(t1.sysPct, 60.0);
    EXPECT_GT(t1.osMissFracPct, 25.0);
    EXPECT_GT(t1.osMissStallPct, 10.0);
    EXPECT_LT(t1.osMissStallPct, 40.0);
    // OS-induced app misses add to the OS-only stall.
    EXPECT_GT(t1.osPlusInducedStallPct, t1.osMissStallPct);

    // Instruction fetches are a major source of OS misses (40-65%).
    const double ifrac =
        100.0 * double(mc.osITotal()) / double(mc.osTotal());
    EXPECT_GT(ifrac, 30.0);
    EXPECT_LT(ifrac, 75.0);

    // Classification is total: nothing unknown.
    EXPECT_EQ(mc.osI[unsigned(MissClass::Unknown)], 0u);
    EXPECT_EQ(mc.osD[unsigned(MissClass::Unknown)], 0u);
    EXPECT_EQ(mc.appI[unsigned(MissClass::Unknown)], 0u);
    EXPECT_EQ(mc.appD[unsigned(MissClass::Unknown)], 0u);
}

TEST(Experiment, PmakeSharingIsLargestDataClass)
{
    auto e = quickRun(WorkloadKind::Pmake, 12000000);
    const auto &mc = e->misses();
    const uint64_t sharing = mc.osD[unsigned(MissClass::Sharing)];
    EXPECT_GT(sharing, mc.osD[unsigned(MissClass::Dispap)]);
    EXPECT_GT(sharing, 0u);
}

TEST(Experiment, PmakeBlockOpsAreMajorDataSource)
{
    auto e = quickRun(WorkloadKind::Pmake, 12000000);
    const auto bo = e->blockOpReport();
    // Paper Table 6: 61% of OS data misses in Pmake; generous band.
    EXPECT_GT(bo.totalPctOfOsD, 25.0);
    EXPECT_GT(bo.copyMisses, 0u);
    EXPECT_GT(bo.clearMisses, 0u);
}

TEST(Experiment, PmakeBlockSizeClasses)
{
    auto e = quickRun(WorkloadKind::Pmake, 12000000);
    const auto ops = e->blockOps();
    const auto copies = blockSizes(ops, kernel::BlockKind::Copy);
    const auto clears = blockSizes(ops, kernel::BlockKind::Clear);
    EXPECT_GT(copies.invocations, 0u);
    EXPECT_GT(clears.invocations, 0u);
    // Paper Table 7: ~70% of clears are full pages; ~half of copies
    // are page-sized or regular fragments.
    EXPECT_GT(clears.fullPagePct, 40.0);
    EXPECT_GT(copies.regularFragmentPct + copies.fullPagePct, 25.0);
    EXPECT_GT(copies.irregularPct, 10.0);
}

TEST(Experiment, MultpgmSginapDominatesOperations)
{
    auto e = quickRun(WorkloadKind::Multpgm, 15000000);
    const uint64_t sginap = e->osOpCount(sim::OsOp::Sginap);
    // Figure 2: sginap is the most frequent OS operation, far above
    // clock interrupts.
    EXPECT_GT(sginap, e->osOpCount(sim::OsOp::Interrupt));
    EXPECT_GT(sginap, e->osOpCount(sim::OsOp::IoSyscall));
}

TEST(Experiment, MultpgmNearZeroIdle)
{
    auto e = quickRun(WorkloadKind::Multpgm);
    EXPECT_LT(e->table1().idlePct, 5.0);
}

TEST(Experiment, OracleLowestOsMissFraction)
{
    auto ep = quickRun(WorkloadKind::Pmake);
    auto eo = quickRun(WorkloadKind::Oracle);
    // Table 1: Oracle has the smallest OS share of misses (26.6 vs
    // ~50 for the engineering workloads).
    EXPECT_LT(eo->table1().osMissFracPct,
              ep->table1().osMissFracPct);
}

TEST(Experiment, OracleDispapDominatesOsInstructionMisses)
{
    auto e = quickRun(WorkloadKind::Oracle, 12000000);
    const auto &mc = e->misses();
    // Figure 4: the database's large working set makes Dispap the top
    // I-miss class for Oracle.
    EXPECT_GT(mc.osI[unsigned(MissClass::Dispap)],
              mc.osI[unsigned(MissClass::Dispos)]);
}

TEST(Experiment, SyncStallDropsWithCachedRmw)
{
    auto e = quickRun(WorkloadKind::Pmake);
    const auto sy = e->syncStallReport();
    // Table 10: the cached LL/SC protocol slashes sync stall.
    EXPECT_GT(sy.uncachedPct, 0.5);
    EXPECT_LT(sy.cachedPct, sy.uncachedPct / 2.0);
}

TEST(Experiment, UtlbFaultsAreCheapAndFrequent)
{
    auto e = quickRun(WorkloadKind::Multpgm);
    const auto &u = e->invocations().utlbFaults();
    EXPECT_GT(u.count, 1000u);
    EXPECT_LT(u.meanCycles(), 200.0);        // "very fast"
    EXPECT_LT(u.meanI() + u.meanD(), 1.0);   // "< 0.1 misses" (approx)
}

TEST(Experiment, OsInvocationReplacesSmallCacheFraction)
{
    auto e = quickRun(WorkloadKind::Pmake);
    const auto &os = e->invocations().osInvocations();
    // 64 KB I-cache has 4096 lines; a mean invocation touches a small
    // fraction of that (Figure 1/3 observation).
    EXPECT_LT(os.meanI(), 1000.0);
    EXPECT_GT(os.count, 100u);
}

TEST(Experiment, ResimTwoWayBeatsDirectMapped)
{
    auto e = quickRun(WorkloadKind::Pmake, 10000000, true);
    auto &rs = e->resim();
    ASSERT_GT(rs.baselineOsMisses(), 0u);
    const auto dm128 = rs.simulate(128 * 1024, 1);
    const auto tw128 = rs.simulate(128 * 1024, 2);
    EXPECT_LE(tw128.osMisses, dm128.osMisses);
    // Larger caches monotonically reduce misses.
    const auto dm512 = rs.simulate(512 * 1024, 1);
    EXPECT_LE(dm512.osMisses, dm128.osMisses);
}

TEST(Experiment, AffinitySchedulingReducesMigration)
{
    ExperimentConfig base;
    base.kind = WorkloadKind::Multpgm;
    base.warmupCycles = 4000000;
    base.measureCycles = 8000000;
    Experiment e1(base);
    e1.run();

    ExperimentConfig aff = base;
    aff.kernelCfg.affinitySched = true;
    Experiment e2(aff);
    e2.run();

    const double m1 = double(e1.kern().migrations()) /
                      double(e1.kern().contextSwitches() + 1);
    const double m2 = double(e2.kern().migrations()) /
                      double(e2.kern().contextSwitches() + 1);
    EXPECT_LT(m2, m1);
}

TEST(Experiment, DeterministicReplay)
{
    auto a = quickRun(WorkloadKind::Pmake, 5000000);
    auto b = quickRun(WorkloadKind::Pmake, 5000000);
    EXPECT_EQ(a->misses().total(), b->misses().total());
    EXPECT_EQ(a->kern().contextSwitches(),
              b->kern().contextSwitches());
}

TEST(Experiment, TimeAccountingIsConserved)
{
    auto e = quickRun(WorkloadKind::Pmake, 5000000);
    const auto acct = e->account();
    const double total = double(acct.all());
    // All four CPUs accounted for every measured cycle (within the
    // slack of in-flight items at the boundary).
    EXPECT_NEAR(total, double(e->elapsed()) * 4, total * 0.01);
}

TEST(Experiment, WideMachineConstructionHeapIsBounded)
{
    // 64 CPUs over 64 MB of 16-byte lines: per-line state held densely
    // (two classifier words and an L2 state byte per CPU, plus a
    // snoop-filter word) would add over 2 GB here. Untouched lines
    // must cost nothing beyond the chunk directories.
    ExperimentConfig cfg;
    cfg.kind = WorkloadKind::Pmake;
    cfg.machine.numCpus = 64;
    cfg.machine.memBytes = 64ULL * 1024 * 1024;
    cfg.options = workload::scaledOptions(cfg.options, 64);
    cfg.kernelCfg.layout.maxProcs = 256;

    const auto heapInUse = [] {
        const struct mallinfo2 mi = mallinfo2();
        return uint64_t(mi.uordblks) + uint64_t(mi.hblkhd);
    };
    const uint64_t before = heapInUse();
    Experiment e(cfg);
    const uint64_t added = heapInUse() - before;
    EXPECT_LT(added, 64ULL * 1024 * 1024);
    EXPECT_EQ(e.classifier_().tableBytes(), 0u);
    EXPECT_EQ(e.machine().memory().l2stateBytes(), 0u);
    EXPECT_EQ(e.machine().memory().sharersBytes(), 0u);
}
