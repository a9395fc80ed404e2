/**
 * @file
 * End-to-end validation of the machine-readable run report: build a
 * small two-conv-layer network, write the JSON report, parse it back
 * with the shared in-test JSON parser, and check the schema the docs
 * promise (manifest, per-layer timeline, aggregate summary).
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "arch/registry.h"
#include "driver/stats_report.h"
#include "mem/memory_model.h"
#include "nn/network.h"
#include "sim/metrics.h"
#include "support/json_parser.h"
#include "timing/network_model.h"

namespace {

using namespace cnv;
using testsupport::Json;
using testsupport::Parser;

/** A two-conv-layer network small enough for an in-test run. */
nn::Network
makeNetwork()
{
    nn::Network net("tiny2", 11);
    int x = net.addInput({8, 8, 16});
    nn::ConvParams c;
    c.filters = 16;
    c.fx = c.fy = 3;
    c.stride = 1;
    c.pad = 1;
    c.inputZeroFraction = 0.5;
    x = net.addConv("c1", x, c);
    net.addConv("c2", x, c);
    net.deriveOutputTargets();
    return net;
}

driver::RunReport
makeReport()
{
    driver::ExperimentConfig cfg;
    cfg.images = 2;
    cfg.seed = 7;
    nn::Network net = makeNetwork();
    driver::RunReport report = driver::buildRunReport(cfg, net);
    report.manifest.wallSeconds = 0.25;
    return report;
}

TEST(ReportJson, DocumentParsesWithManifestAndSummary)
{
    std::ostringstream os;
    driver::writeReportJson(makeReport(), os);
    const std::string text = os.str();
    Json doc = Parser(text).parse();

    EXPECT_EQ(doc.at("schema").text, "cnv-report-v1");

    const Json &manifest = doc.at("manifest");
    EXPECT_EQ(manifest.at("tool").text, "cnvsim");
    EXPECT_FALSE(manifest.at("gitSha").text.empty());
    EXPECT_FALSE(manifest.at("version").text.empty());
    EXPECT_EQ(manifest.at("network").text, "tiny2");
    EXPECT_FALSE(manifest.at("nodeConfig").text.empty());
    EXPECT_EQ(manifest.at("images").number, 2.0);
    EXPECT_EQ(manifest.at("seed").number, 7.0);
    EXPECT_EQ(manifest.at("weightSparsity").number,
              timing::kDefaultWeightSparsity);
    EXPECT_EQ(manifest.at("wallSeconds").number, 0.25);

    const Json &summary = doc.at("summary");
    EXPECT_GT(summary.at("baselineCycles").number, 0.0);
    EXPECT_GT(summary.at("cnvCycles").number, 0.0);
    EXPECT_GT(summary.at("speedup").number, 0.0);

    // The per-arch keyed summary carries the same numbers.
    const Json &archs = summary.at("archs");
    EXPECT_EQ(archs.at("dadiannao").at("cycles").number,
              summary.at("baselineCycles").number);
    EXPECT_EQ(archs.at("cnv").at("cycles").number,
              summary.at("cnvCycles").number);
}

TEST(ReportJson, MultiArchSelectionKeysEverySection)
{
    driver::ExperimentConfig cfg;
    cfg.images = 1;
    cfg.seed = 7;
    nn::Network net = makeNetwork();
    const auto sel = arch::builtin().select("cnv,cnv2,cnv-b8");
    driver::RunReport report = driver::buildRunReport(cfg, net, sel);

    std::ostringstream os;
    driver::writeReportJson(report, os);
    Json doc = Parser(os.str()).parse();

    const Json &archs = doc.at("architectures");
    ASSERT_TRUE(archs.has("cnv"));
    ASSERT_TRUE(archs.has("cnv2"));
    ASSERT_TRUE(archs.has("cnv-b8"));
    EXPECT_FALSE(archs.has("dadiannao"));

    const Json &summary = doc.at("summary");
    EXPECT_GT(summary.at("archs").at("cnv").at("cycles").number, 0.0);
    EXPECT_GT(summary.at("archs").at("cnv2").at("cycles").number, 0.0);
    EXPECT_GT(summary.at("archs").at("cnv-b8").at("cycles").number, 0.0);
    // Weight skipping only removes work relative to cnv.
    EXPECT_LE(summary.at("archs").at("cnv2").at("cycles").number,
              summary.at("archs").at("cnv").at("cycles").number);
    // Without the canonical pair there is no legacy trio.
    EXPECT_FALSE(summary.has("baselineCycles"));
    EXPECT_FALSE(summary.has("speedup"));
}

TEST(ReportJson, BothArchitecturesCarryPerLayerTimelines)
{
    std::ostringstream os;
    driver::writeReportJson(makeReport(), os);
    Json doc = Parser(os.str()).parse();

    const Json &archs = doc.at("architectures");
    ASSERT_TRUE(archs.has("dadiannao"));
    ASSERT_TRUE(archs.has("cnv"));

    for (const char *arch : {"dadiannao", "cnv"}) {
        const Json &tree = archs.at(arch);
        const double totalCycles =
            tree.at("stats").at("cycles").at("value").number;
        EXPECT_GT(totalCycles, 0.0) << arch;

        const Json &layers = tree.at("groups").at("layers").at("groups");
        // Two conv layers plus any synapse-load stall layers.
        EXPECT_GE(layers.object.size(), 2u) << arch;

        // Layers appear in timeline order (startCycle cumulative over
        // the preceding layers' cycles) and cover the total exactly.
        double expectStart = 0.0, covered = 0.0;
        for (const auto &[name, layer] : layers.object) {
            const Json &stats = layer.at("stats");
            EXPECT_EQ(stats.at("startCycle").at("value").number,
                      expectStart)
                << arch << "." << name;
            expectStart += stats.at("cycles").at("value").number;
            covered += stats.at("cycles").at("value").number;
            ASSERT_TRUE(layer.at("groups").has("micro"))
                << arch << "." << name;
            ASSERT_TRUE(layer.at("groups").has("energy"))
                << arch << "." << name;
        }
        EXPECT_EQ(covered, totalCycles) << arch;
    }

    // The encoded CNV conv layers report encoder throughput.
    const Json &cnvLayers =
        archs.at("cnv").at("groups").at("layers").at("groups");
    double encoderBricks = 0.0;
    for (const auto &[name, layer] : cnvLayers.object)
        encoderBricks += layer.at("groups").at("micro").at("stats")
                             .at("encoderBricks").at("value").number;
    EXPECT_GT(encoderBricks, 0.0);
}

TEST(ReportJson, HostProfileConfinesAllHostTimings)
{
    // With telemetry recording, the report gains a hostProfile block
    // — and ONLY that block may differ between two serializations of
    // the same results (host timings are wall-clock, results are
    // deterministic).
    sim::metrics().setEnabled(true);
    const driver::RunReport report = makeReport();
    std::ostringstream os1, os2;
    driver::writeReportJson(report, os1);
    {
        const sim::ScopedPhase phase("extraPhase");
    }
    driver::writeReportJson(report, os2);
    sim::metrics().setEnabled(false);

    const std::string a = os1.str(), b = os2.str();
    const std::size_t cutA = a.find("\"hostProfile\"");
    const std::size_t cutB = b.find("\"hostProfile\"");
    ASSERT_NE(cutA, std::string::npos);
    ASSERT_NE(cutB, std::string::npos);
    EXPECT_EQ(a.substr(0, cutA), b.substr(0, cutB));

    const Json doc = Parser(a).parse();
    const Json &hp = doc.at("hostProfile");
    EXPECT_GE(hp.at("totalSeconds").number, 0.0);
    ASSERT_TRUE(hp.has("phases"));
    ASSERT_TRUE(hp.has("traceCache"));
    // The simulated-results sections must not embed host timings:
    // every wall-clock key lives after the hostProfile cut.
    for (const char *key : {"busySeconds", "phaseCoverage",
                            "peakRssBytes", "totalSeconds", "provenance",
                            "hardwareConcurrency"})
        EXPECT_GE(a.find(key), cutA) << key;
}

TEST(ReportCsv, RowsCoverManifestStatsAndSummary)
{
    std::ostringstream os;
    driver::writeReportCsv(makeReport(), os);
    std::istringstream is(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line, "path,kind,value,description");

    bool sawManifest = false, sawBaseline = false, sawCnv = false,
         sawSummary = false;
    while (std::getline(is, line)) {
        sawManifest |= line.rfind("manifest.network,manifest,tiny2", 0) == 0;
        sawBaseline |= line.rfind("dadiannao.cycles,counter,", 0) == 0;
        sawCnv |= line.rfind("cnv.cycles,counter,", 0) == 0;
        sawSummary |= line.rfind("summary.speedup,summary,", 0) == 0;
    }
    EXPECT_TRUE(sawManifest);
    EXPECT_TRUE(sawBaseline);
    EXPECT_TRUE(sawCnv);
    EXPECT_TRUE(sawSummary);
}

/** Append every scalar leaf under `v` as (dotted path, leaf). */
void
scalarLeaves(const Json &v, const std::string &path,
             std::map<std::string, const Json *> &out)
{
    if (v.kind == Json::Kind::Number || v.kind == Json::Kind::String)
        out[path] = &v;
    for (const auto &[key, child] : v.object)
        scalarLeaves(child, path + "." + key, out);
}

/** Split one CSV line into its fields, undoing RFC 4180 quoting. */
std::vector<std::string>
csvFields(const std::string &line)
{
    std::vector<std::string> fields(1);
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted && c == '"' && i + 1 < line.size() && line[i + 1] == '"')
            fields.back() += line[++i];
        else if (c == '"')
            quoted = !quoted;
        else if (c == ',' && !quoted)
            fields.emplace_back();
        else
            fields.back() += c;
    }
    return fields;
}

TEST(ReportCsv, SummaryAndManifestRowsMatchEveryJsonLeafExactly)
{
    driver::ExperimentConfig cfg;
    cfg.images = 2;
    cfg.seed = 7;
    cfg.weightSparsity = 0.123456789;
    cfg.memKind = mem::Kind::Banked;
    nn::Network net = makeNetwork();
    driver::RunReport report = driver::buildRunReport(cfg, net);
    report.manifest.wallSeconds = 1.0 / 3.0;

    std::ostringstream json, csv;
    driver::writeReportJson(report, json);
    driver::writeReportCsv(report, csv);
    const Json doc = Parser(json.str()).parse();
    ASSERT_TRUE(doc.at("summary").has("memory"));
    std::map<std::string, const Json *> leaves;
    scalarLeaves(doc.at("summary"), "summary", leaves);
    scalarLeaves(doc.at("manifest"), "manifest", leaves);

    // Rows of kind summary/manifest, keyed by path; their kind is the
    // path's first component.
    std::map<std::string, std::string> rows;
    std::istringstream is(csv.str());
    std::string line;
    while (std::getline(is, line)) {
        const std::vector<std::string> f = csvFields(line);
        ASSERT_EQ(f.size(), 4u) << line;
        if (f[1] != "summary" && f[1] != "manifest")
            continue;
        EXPECT_EQ(f[0].rfind(f[1] + ".", 0), 0u) << line;
        EXPECT_TRUE(rows.emplace(f[0], f[2]).second) << "repeated " << f[0];
    }

    EXPECT_TRUE(leaves.count("summary.memory.cnv.memoryBoundLayers"));
    EXPECT_TRUE(leaves.count("summary.memory.cnv.computeBoundLayers"));
    EXPECT_TRUE(leaves.count("summary.speedup"));
    EXPECT_EQ(rows.size(), leaves.size());
    for (const auto &[path, leaf] : leaves) {
        const auto it = rows.find(path);
        ASSERT_NE(it, rows.end()) << "no CSV row for " << path;
        // Doubles print in the JSON's shortest round-trip form, so
        // every value parses back exactly.
        if (leaf->kind == Json::Kind::Number)
            EXPECT_EQ(std::stod(it->second), leaf->number) << path;
        else
            EXPECT_EQ(it->second, leaf->text) << path;
    }
}

} // namespace
