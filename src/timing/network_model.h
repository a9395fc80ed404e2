/**
 * @file
 * Fast whole-network timing: runs a network's geometry over
 * synthesized activation traces using the closed-form conv models,
 * producing the same NetworkResult schema as the functional node
 * models. This is the path the paper-scale experiments use (full
 * 224x224 geometries, many images, threshold sweeps).
 */

#ifndef CNV_TIMING_NETWORK_MODEL_H
#define CNV_TIMING_NETWORK_MODEL_H

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dadiannao/config.h"
#include "dadiannao/metrics.h"
#include "dadiannao/other_layers.h"
#include "mem/memory_model.h"
#include "nn/network.h"
#include "timing/conv_model.h"

namespace cnv::timing {

/** Which architecture to model. */
enum class Arch { Baseline, Cnv, Cnv2 };

const char *archName(Arch a);

/**
 * Default fraction of ineffectual weight bricks assumed on the
 * synthesized filters for Cnvlutin2 runs (timing::Arch::Cnv2). The
 * synthetic filter banks are Gaussian and carry no exact zeros, so
 * the weight-sparsity knob models the post-pruning regime the
 * Cnvlutin2 paper (arXiv 1705.00125) targets: the fraction of
 * (filter-group, kernel-position, depth-brick) weight bricks whose
 * weights are all ineffectual and can be skipped at dispatch.
 * Override per run via RunOptions::weightSparsity (CLI:
 * `--weight-sparsity`).
 */
inline constexpr double kDefaultWeightSparsity = 0.35;

/**
 * Source of per-layer input activation traces. The default
 * (synthetic, calibrated) generator is used wherever a provider
 * returns nothing — so real traces exported from an actual
 * framework run can replace the synthetic substitution layer by
 * layer (see DirectoryTraceProvider and `cnvsim export-traces`).
 */
class TraceProvider
{
  public:
    virtual ~TraceProvider() = default;

    /**
     * The *unpruned* input tensor of one conv layer for one image,
     * or std::nullopt to fall back to the synthetic generator.
     * Pruning thresholds are applied by the caller.
     */
    virtual std::optional<tensor::NeuronTensor>
    convInput(const nn::Network &net, int convNodeId,
              std::uint64_t imageSeed) const = 0;
};

/**
 * Loads traces from `<dir>/<network>_conv<index>_img<seed>.cnvt`
 * files written with tensor::saveTensorFile; missing files fall
 * back to synthesis.
 */
class DirectoryTraceProvider : public TraceProvider
{
  public:
    explicit DirectoryTraceProvider(std::string dir)
        : dir_(std::move(dir))
    {
    }

    std::optional<tensor::NeuronTensor>
    convInput(const nn::Network &net, int convNodeId,
              std::uint64_t imageSeed) const override;

    /** The path a given layer trace is looked up at. */
    std::string pathFor(const nn::Network &net, int convNodeId,
                        std::uint64_t imageSeed) const;

  private:
    std::string dir_;
};

class TraceCache;

/** Options for a trace-driven network timing run. */
struct RunOptions
{
    /** Seed identifying the "image" (trace instance). */
    std::uint64_t imageSeed = 1;
    /**
     * Dynamic pruning thresholds (CNV only; the baseline has no
     * encoder and always sees unpruned values).
     */
    const nn::PruneConfig *prune = nullptr;
    /** Optional external activation traces. */
    const TraceProvider *traces = nullptr;
    /**
     * Optional shared trace cache (timing/trace_cache.h). Every run
     * reads its conv-layer count maps through a TraceCache; a call
     * without one uses its own, so sharing one only lets runs
     * compute each (image, layer) once across architectures and
     * threads.
     */
    TraceCache *cache = nullptr;
    /**
     * Weight-sparsity knob for Cnv2 (ignored by the other
     * architectures): fraction of weight bricks that are
     * ineffectual across a filter-group pass and skipped at
     * dispatch. Deterministic per (layer, kernel position, brick,
     * pass) — never per thread or per call — so reports stay
     * byte-identical at any --jobs count. Recorded in the report
     * manifest as `weightSparsity`.
     */
    double weightSparsity = kDefaultWeightSparsity;
    /**
     * Memory-hierarchy model (`--mem`). Ideal — the default — keeps
     * every report byte-identical to a pre-mem build; Banked routes
     * each NM access through a per-run mem::MemoryModel (banked NM +
     * global buffer + DRAM channel). The model instance is created
     * inside simulateNetwork, so runs stay deterministic at any
     * --jobs count; its geometry comes from the NodeConfig (banks =
     * nmBanks, dramBytesPerCycle = offchipBytesPerCycle).
     */
    mem::Kind memKind = mem::Kind::Ideal;
};

/**
 * Conv layer timing on one architecture: applies the per-layer
 * encoded/conventional selection (conv1 conventional, every later
 * layer encoded) and dispatches to the closed-form
 * convBaseline/convCnv/convCnv2 models. The returned LayerResult
 * carries the node's name.
 *
 * @param counts Per-brick non-zero counts of the layer's input.
 * @param weightSparsity Cnv2 ineffectual-weight-brick fraction
 *        (ignored by the other architectures).
 * @param mem Optional memory model the layer's NM accesses are
 *        issued against.
 */
dadiannao::LayerResult convLayerTiming(
    const dadiannao::NodeConfig &cfg, Arch arch, const nn::Node &node,
    const CountMap &counts, double weightSparsity = kDefaultWeightSparsity,
    mem::MemoryModel *mem = nullptr);

/**
 * Fully-connected layer timing on one architecture: the shared
 * throughput model, or the CNV zero-skipping extension when
 * cfg.cnvSkipsFcLayers is set (the input zero fraction is derived
 * from the nearest upstream conv's calibrated target).
 */
dadiannao::LayerResult fcLayerTiming(const dadiannao::NodeConfig &cfg,
                                     Arch arch, const nn::Network &net,
                                     int nodeId,
                                     dadiannao::OverlapTracker &overlap);

/**
 * Simulate one image through the network on the given architecture.
 * Conv layers are trace-driven; the first conv layer runs in
 * conventional mode on both architectures; non-conv layers use the
 * shared throughput model. The one-arch case of simulateNetworks.
 */
dadiannao::NetworkResult simulateNetwork(const dadiannao::NodeConfig &cfg,
                                         const nn::Network &net, Arch arch,
                                         const RunOptions &opts);

/**
 * Simulate one image through the network on several architectures
 * in lock-step: result i equals simulateNetwork(cfg, net, archs[i],
 * opts). Each arch keeps its own overlap tracker, memory model and
 * result, and takes each layer's steps in simulateNetwork's order;
 * the encoded conv layers of every CNV-family arch run as one
 * convEncoded walk, so a window group is gathered, and on banked
 * runs replayed, once for all of them.
 */
std::vector<dadiannao::NetworkResult>
simulateNetworks(const dadiannao::NodeConfig &cfg, const nn::Network &net,
                 std::span<const Arch> archs, const RunOptions &opts);

} // namespace cnv::timing

#endif // CNV_TIMING_NETWORK_MODEL_H
