/**
 * @file
 * Tests for the architecture registry: lookup semantics, stable
 * iteration order, selection parsing, the golden guarantee that the
 * built-in models reproduce the direct timing entry point bit for
 * bit, and pinned power/area totals.
 */

#include <gtest/gtest.h>

#include "arch/registry.h"
#include "mem/memory_model.h"
#include "nn/zoo/zoo.h"
#include "sim/error.h"
#include "timing/network_model.h"

namespace {

using namespace cnv;

TEST(ArchRegistry, BuiltinLookup)
{
    const arch::ArchRegistry &reg = arch::builtin();
    const arch::ArchModel *base = reg.find("dadiannao");
    ASSERT_NE(base, nullptr);
    EXPECT_EQ(base->id(), "dadiannao");
    EXPECT_EQ(base->displayName(), "DaDianNao baseline");
    EXPECT_EQ(reg.find("not-an-arch"), nullptr);
    EXPECT_EQ(&reg.get("cnv"), reg.find("cnv"));
}

TEST(ArchRegistry, UnknownArchIsFatalAndListsKnownIds)
{
    try {
        arch::builtin().get("tpu");
        FAIL() << "expected FatalError";
    } catch (const sim::FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("tpu"), std::string::npos);
        EXPECT_NE(msg.find("dadiannao"), std::string::npos);
        EXPECT_NE(msg.find("cnv"), std::string::npos);
    }
}

TEST(ArchRegistry, StableIterationOrder)
{
    const std::vector<std::string> expected{
        "dadiannao", "cnv",    "cnv2",    "cnv-pruned",
        "cnv-b4",    "cnv-b8", "cnv-b32"};
    EXPECT_EQ(arch::builtin().ids(), expected);
}

TEST(ArchRegistry, SelectParsesCsvInOrder)
{
    const auto sel = arch::builtin().select("cnv, dadiannao");
    ASSERT_EQ(sel.size(), 2u);
    EXPECT_EQ(sel[0]->id(), "cnv");
    EXPECT_EQ(sel[1]->id(), "dadiannao");
    EXPECT_THROW(arch::builtin().select("cnv,cnv"), sim::FatalError);
    EXPECT_THROW(arch::builtin().select("cnv,,dadiannao"),
                 sim::FatalError);
    EXPECT_THROW(arch::builtin().select("eyeriss"), sim::FatalError);
}

TEST(ArchRegistry, DuplicateAddIsFatal)
{
    arch::ArchRegistry reg;
    reg.add(arch::makeCnvVariant("cnv-b2", "two-neuron bricks", 2));
    EXPECT_THROW(
        reg.add(arch::makeCnvVariant("cnv-b2", "again", 2)),
        sim::FatalError);
}

TEST(ArchRegistry, CanonicalPairIsDadiannaoThenCnv)
{
    const auto pair = arch::canonicalPair();
    ASSERT_EQ(pair.size(), 2u);
    EXPECT_EQ(pair[0]->id(), "dadiannao");
    EXPECT_EQ(pair[1]->id(), "cnv");
}

/** The registry models must reproduce the direct timing entry point
 *  bit for bit — cycles, activity, energy, and per-layer timeline —
 *  with the ideal memory and with `--mem banked`, where the banked
 *  geometry (unit-wide fetch on dadiannao, sliced fetch on the CNV
 *  family, banks following a brick variant's node) must agree too. */
TEST(ArchRegistry, GoldenBitIdenticalToDirectTiming)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    const dadiannao::NodeConfig cfg;
    const dadiannao::NodeConfig b8Cfg =
        arch::builtin().get("cnv-b8").nodeConfig({});

    const struct
    {
        const char *id;
        timing::Arch arch;
        mem::Kind memKind;
        dadiannao::NodeConfig directCfg;
    } cases[] = {
        {"dadiannao", timing::Arch::Baseline, mem::Kind::Ideal, cfg},
        {"cnv", timing::Arch::Cnv, mem::Kind::Ideal, cfg},
        {"cnv2", timing::Arch::Cnv2, mem::Kind::Ideal, cfg},
        {"dadiannao", timing::Arch::Baseline, mem::Kind::Banked, cfg},
        {"cnv", timing::Arch::Cnv, mem::Kind::Banked, cfg},
        {"cnv-b8", timing::Arch::Cnv, mem::Kind::Banked, b8Cfg},
    };
    for (const auto &c : cases) {
        timing::RunOptions opts;
        opts.imageSeed = 2016;
        opts.memKind = c.memKind;
        const std::string label =
            std::string(c.id) + "/" + mem::kindName(c.memKind);
        const auto direct =
            timing::simulateNetwork(c.directCfg, *net, c.arch, opts);
        const auto viaModel =
            arch::builtin().get(c.id).simulateNetwork(cfg, *net, opts);

        EXPECT_EQ(viaModel.architecture, c.id);
        EXPECT_EQ(viaModel.totalCycles(), direct.totalCycles()) << label;

        const auto da = direct.totalActivity();
        const auto ma = viaModel.totalActivity();
        EXPECT_EQ(ma.other, da.other) << label;
        EXPECT_EQ(ma.conv1, da.conv1) << label;
        EXPECT_EQ(ma.zero, da.zero) << label;
        EXPECT_EQ(ma.nonZero, da.nonZero) << label;
        EXPECT_EQ(ma.stall, da.stall) << label;

        const auto de = direct.totalEnergy();
        const auto me = viaModel.totalEnergy();
        EXPECT_EQ(me.sbReads, de.sbReads) << label;
        EXPECT_EQ(me.nmReads, de.nmReads) << label;
        EXPECT_EQ(me.nmWrites, de.nmWrites) << label;
        EXPECT_EQ(me.multOps, de.multOps) << label;
        EXPECT_EQ(me.encoderOps, de.encoderOps) << label;

        ASSERT_EQ(viaModel.layers.size(), direct.layers.size()) << label;
        for (std::size_t i = 0; i < direct.layers.size(); ++i) {
            const auto &dl = direct.layers[i];
            const auto &ml = viaModel.layers[i];
            EXPECT_EQ(ml.cycles, dl.cycles) << label << " layer " << i;
            EXPECT_EQ(ml.mem.nmAccesses, dl.mem.nmAccesses)
                << label << " layer " << i;
            EXPECT_EQ(ml.mem.nmConflictCycles, dl.mem.nmConflictCycles)
                << label << " layer " << i;
            EXPECT_EQ(ml.mem.gbMisses, dl.mem.gbMisses)
                << label << " layer " << i;
            EXPECT_EQ(ml.mem.dramBytes, dl.mem.dramBytes)
                << label << " layer " << i;
        }
    }
}

/** Area, power and metrics totals through the models on a fixed
 *  counter set, pinned to the exact doubles (hexfloat) the power
 *  model has always produced for these architectures. */
TEST(ArchRegistry, PowerAreaMetricsPinned)
{
    dadiannao::EnergyCounters e;
    e.sbReads = 123456789;
    e.nmReads = 2345678;
    e.nmWrites = 345678;
    e.nbinReads = 45678901;
    e.nbinWrites = 5678901;
    e.multOps = 678901234;
    e.addOps = 678901234;
    e.encoderOps = 7890123;
    e.offchipBytes = 890123;
    const std::uint64_t cycles = 1'234'567;

    const struct
    {
        const char *id;
        double area, power, edp, ed2p;
    } cases[] = {
        {"dadiannao", 0x1.0e66666666666p+6, 0x1.2aeb615a2fc78p+3,
         0x1.79e499087ba51p-7, 0x1.ddbb22b52542dp-17},
        {"cnv", 0x1.1a94467381d7dp+6, 0x1.4d9ada426d10ap+3,
         0x1.a5bdff1d4247bp-7, 0x1.0a951f90c499p-16},
        {"cnv2", 0x1.199e83e425aeep+6, 0x1.48a32062201c3p+3,
         0x1.9f7648e50d9dcp-7, 0x1.069ce43308984p-16},
    };
    for (const auto &c : cases) {
        const arch::ArchModel &model = arch::builtin().get(c.id);
        EXPECT_EQ(model.area().total(), c.area) << c.id;
        EXPECT_EQ(model.power(e, cycles).total(), c.power) << c.id;
        const auto m = model.metrics(e, cycles);
        EXPECT_EQ(m.edp, c.edp) << c.id;
        EXPECT_EQ(m.ed2p, c.ed2p) << c.id;
    }
}

TEST(ArchRegistry, BrickVariantChangesGeometryAndTiming)
{
    const arch::ArchModel &b8 = arch::builtin().get("cnv-b8");
    const dadiannao::NodeConfig cfg = b8.nodeConfig({});
    EXPECT_EQ(cfg.brickSize, 8);
    EXPECT_EQ(cfg.lanes, 8);
    EXPECT_EQ(cfg.nmBanks, 8);

    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    timing::RunOptions opts;
    opts.imageSeed = 2016;
    const auto cnvRun =
        arch::builtin().get("cnv").simulateNetwork({}, *net, opts);
    const auto b8Run = b8.simulateNetwork({}, *net, opts);
    EXPECT_NE(b8Run.totalCycles(), cnvRun.totalCycles());
}

/** Every run validates its variant-adjusted node: the shared
 *  NodeConfig invariants hold on every architecture. */
TEST(ArchRegistry, SimulateNetworkEnforcesSharedInvariants)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    timing::RunOptions opts;
    opts.imageSeed = 2016;
    dadiannao::NodeConfig cfg;
    cfg.lanes = cfg.brickSize * 2;
    // One neuron lane drains one brick slot on every variant.
    EXPECT_THROW(arch::builtin().get("cnv").simulateNetwork(cfg, *net, opts),
                 sim::FatalError);
    EXPECT_THROW(
        arch::builtin().get("dadiannao").simulateNetwork(cfg, *net, opts),
        sim::FatalError);
    // A brick variant's own geometry is self-consistent, so a run
    // accepts what nodeConfig() produced.
    const arch::ArchModel &b8 = arch::builtin().get("cnv-b8");
    EXPECT_NO_THROW(b8.simulateNetwork(b8.nodeConfig({}), *net, opts));
}

/** Weight skipping can only remove work on top of CNV's activation
 *  skipping, so cnv2 is at least as fast on every network at the
 *  default weight sparsity. */
TEST(ArchRegistry, Cnv2AtLeastAsFastAsCnv)
{
    timing::RunOptions opts;
    opts.imageSeed = 2016;
    const arch::ArchModel &cnv = arch::builtin().get("cnv");
    const arch::ArchModel &cnv2 = arch::builtin().get("cnv2");
    for (auto id : nn::zoo::allNetworks()) {
        const auto net = nn::zoo::build(id, 2016);
        const auto cnvRun = cnv.simulateNetwork({}, *net, opts);
        const auto cnv2Run = cnv2.simulateNetwork({}, *net, opts);
        EXPECT_LE(cnv2Run.totalCycles(), cnvRun.totalCycles())
            << nn::zoo::netName(id);
    }
    // On the synthesized (weight-sparse) nets the skipping must
    // actually bite somewhere, not just tie.
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    EXPECT_LT(cnv2.simulateNetwork({}, *net, opts).totalCycles(),
              cnv.simulateNetwork({}, *net, opts).totalCycles());
}

/** With the weight-sparsity knob at zero no weight brick is ever
 *  ineffectual, and the cnv2 schedule degenerates to cnv's exactly
 *  — cycles, activity, energy, and stall attribution. */
TEST(ArchRegistry, Cnv2AtZeroWeightSparsityMatchesCnv)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    timing::RunOptions opts;
    opts.imageSeed = 2016;
    opts.weightSparsity = 0.0;
    const auto cnvRun =
        arch::builtin().get("cnv").simulateNetwork({}, *net, opts);
    const auto cnv2Run =
        arch::builtin().get("cnv2").simulateNetwork({}, *net, opts);
    EXPECT_EQ(cnv2Run.totalCycles(), cnvRun.totalCycles());
    const auto a = cnvRun.totalActivity();
    const auto a2 = cnv2Run.totalActivity();
    EXPECT_EQ(a2.zero, a.zero);
    EXPECT_EQ(a2.nonZero, a.nonZero);
    EXPECT_EQ(a2.stall, a.stall);
    const auto e = cnvRun.totalEnergy();
    const auto e2 = cnv2Run.totalEnergy();
    EXPECT_EQ(e2.sbReads, e.sbReads);
    EXPECT_EQ(e2.nmReads, e.nmReads);
    EXPECT_EQ(e2.multOps, e.multOps);
    const auto m = cnvRun.totalMicro();
    const auto m2 = cnv2Run.totalMicro();
    EXPECT_EQ(m2.laneBusyCycles, m.laneBusyCycles);
    EXPECT_EQ(m2.laneIdleCycles, m.laneIdleCycles);
}

/** Every idle lane-cycle the cnv2 model reports carries a stall
 *  reason (the invariant the trace pipeline asserts), and repeated
 *  runs are deterministic. */
TEST(ArchRegistry, Cnv2StallAttributionCoversIdleCycles)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    timing::RunOptions opts;
    opts.imageSeed = 2016;
    const arch::ArchModel &cnv2 = arch::builtin().get("cnv2");
    const auto run = cnv2.simulateNetwork({}, *net, opts);
    const auto micro = run.totalMicro();
    EXPECT_EQ(micro.stalls.total(), micro.laneIdleCycles);
    const auto again = cnv2.simulateNetwork({}, *net, opts);
    EXPECT_EQ(again.totalCycles(), run.totalCycles());
}

TEST(ArchRegistry, CnvPrunedDefaultsToUniformThresholds)
{
    const auto net = nn::zoo::build(nn::zoo::NetId::Nin, 2016);
    timing::RunOptions opts;
    opts.imageSeed = 2016;
    const arch::ArchModel &cnv = arch::builtin().get("cnv");
    const arch::ArchModel &pruned = arch::builtin().get("cnv-pruned");

    // Without an explicit config, cnv-pruned applies its default
    // uniform thresholds and skips more than plain cnv.
    const auto plain = cnv.simulateNetwork({}, *net, opts);
    const auto defaulted = pruned.simulateNetwork({}, *net, opts);
    EXPECT_LT(defaulted.totalCycles(), plain.totalCycles());

    // With an explicit config, both models honour it identically.
    nn::PruneConfig explicitCfg;
    explicitCfg.thresholds.assign(net->convLayerCount(), 32);
    opts.prune = &explicitCfg;
    EXPECT_EQ(pruned.simulateNetwork({}, *net, opts).totalCycles(),
              cnv.simulateNetwork({}, *net, opts).totalCycles());
}

} // namespace
