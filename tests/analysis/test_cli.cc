/** @file Tests for the shared command-line parser (driver/cli.h). */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "driver/cli.h"

namespace {

using namespace cnv;
using driver::CliOptions;
using driver::Flag;

/** The diagnostic parseFlags throws for `args`, or "" when it parses. */
std::string
diagnostic(const std::vector<std::string> &args,
           const std::vector<Flag> &accepted)
{
    CliOptions opts;
    try {
        driver::parseFlags("tool", args, accepted, opts);
    } catch (const driver::UsageError &e) {
        return e.what();
    }
    return "";
}

std::vector<Flag>
allFlags()
{
    std::vector<Flag> all;
    for (int f = 0; f <= static_cast<int>(Flag::Help); ++f)
        all.push_back(static_cast<Flag>(f));
    return all;
}

TEST(Cli, BothSpellingsFillTheExperimentConfig)
{
    CliOptions opts;
    driver::parseFlags("tool",
                       {"--images", "3", "--seed=7", "--mem", "banked",
                        "--weight-sparsity=0.5", "--scale", "4", "--csv",
                        "--report-json=r.json"},
                       allFlags(), opts);
    EXPECT_EQ(opts.cfg.images, 3);
    EXPECT_EQ(opts.cfg.seed, 7u);
    EXPECT_EQ(opts.cfg.memKind, mem::Kind::Banked);
    EXPECT_EQ(opts.cfg.weightSparsity, 0.5);
    EXPECT_EQ(opts.cfg.accuracyScale, 4);
    EXPECT_TRUE(opts.csv);
    EXPECT_EQ(opts.reportJson, "r.json");
    EXPECT_FALSE(opts.quick);
}

TEST(Cli, MalformedAndOutOfRangeValuesNameTheFlag)
{
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"--images", "2x"},          {"--images", "0"},
        {"--images", "-1"},          {"--images", ""},
        {"--seed", "-5"},            {"--seed", "+5"},
        {"--seed", "1.5"},           {"--scale", "0"},
        {"--max-events", "abc"},     {"--max-events", "0"},
        {"--jobs", "0"},             {"--floor", "nan"},
        {"--floor", "1.5"},          {"--weight-sparsity", "inf"},
        {"--weight-sparsity", "-0.1"}, {"--mem", "bogus"},
        {"--progress", "maybe"},     {"--perf-json", ""},
        {"--out", ""},               {"--net", ""},
    };
    for (const auto &[flag, value] : bad) {
        const std::string msg = diagnostic({flag, value}, allFlags());
        EXPECT_EQ(msg.rfind("tool: invalid value '" + value + "' for " +
                                flag + " (expected ",
                            0),
                  0u)
            << flag << ' ' << value << ": " << msg;
        EXPECT_EQ(diagnostic({flag + "=" + value}, allFlags()), msg);
    }
}

TEST(Cli, FlagsTheToolDoesNotReadAreRejected)
{
    const std::string msg =
        diagnostic({"--images", "1", "--mem", "banked"}, {Flag::Images});
    EXPECT_NE(msg.find("tool: unknown option --mem"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("accepted: --images"), std::string::npos) << msg;
    EXPECT_NE(diagnostic({"--bogus"}, allFlags()).find("--bogus"),
              std::string::npos);
    EXPECT_NE(diagnostic({"--csv"}, {}).find("accepted: none"),
              std::string::npos);
}

TEST(Cli, ShapeMistakesAreDiagnosed)
{
    EXPECT_EQ(diagnostic({"--images"}, allFlags()),
              "tool: missing value for --images");
    EXPECT_EQ(diagnostic({"--csv=1"}, allFlags()),
              "tool: --csv takes no value");
    EXPECT_EQ(diagnostic({"nin"}, allFlags()),
              "tool: unexpected argument 'nin'");
}

TEST(Cli, EveryFlagHasOneSpellingAndOneHelpLine)
{
    std::istringstream names(driver::flagNames(allFlags()));
    std::set<std::string> seen;
    for (std::string name; names >> name;) {
        EXPECT_EQ(name.rfind("--", 0), 0u) << name;
        EXPECT_TRUE(seen.insert(name).second) << name << " twice";
    }
    EXPECT_EQ(seen.size(), allFlags().size());

    std::ostringstream os;
    driver::printFlagHelp(os, {Flag::Csv, Flag::Images});
    const std::string help = os.str();
    EXPECT_EQ(help.find("--images N"), help.find("--")); // table order
    EXPECT_NE(help.find("--csv"), std::string::npos);
    EXPECT_EQ(std::count(help.begin(), help.end(), '\n'), 2);
}

} // namespace
