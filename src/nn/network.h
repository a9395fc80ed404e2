/**
 * @file
 * Network graph: a DAG of layer nodes (inception branches need real
 * fan-out/fan-in) with a functional forward pass.
 *
 * Weights are synthetic — this substitutes for the pre-trained Caffe
 * Model Zoo weights the paper used (see DESIGN.md) — generated
 * lazily from a per-node seeded stream with fan-in-scaled Gaussian
 * initialisation. calibrate() then runs one forward pass adjusting
 * each conv/fc node's bias so its post-ReLU output hits the node's
 * target zero fraction, giving the functional engine the same
 * sparsity regime the timing traces use.
 */

#ifndef CNV_NN_NETWORK_H
#define CNV_NN_NETWORK_H

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/sync.h"
#include "nn/kernels.h"
#include "nn/layer.h"
#include "sim/rng.h"
#include "tensor/neuron_tensor.h"

namespace cnv::nn {

/** Per-layer dynamic pruning thresholds (raw fixed-point units). */
struct PruneConfig
{
    /**
     * Threshold per conv node, indexed by conv order (first conv
     * layer first). The first conv layer's threshold is ignored:
     * CNV processes conv1 in conventional mode. Missing entries
     * default to 0 (prune nothing beyond exact zeros).
     */
    std::vector<std::int32_t> thresholds;

    std::int32_t
    forConvIndex(std::size_t i) const
    {
        return i < thresholds.size() ? thresholds[i] : 0;
    }
};

/** One node of the network graph. */
struct Node
{
    NodeKind kind = NodeKind::Input;
    std::string name;
    std::vector<int> inputs;      ///< producer node ids
    tensor::Shape3 inShape;       ///< concatenated input shape
    tensor::Shape3 outShape;

    // Parameters (valid depending on kind).
    ConvParams conv;
    PoolParams pool;
    LrnParams lrnParams;
    FcParams fc;

    /** Index among conv nodes (0 = first conv layer), -1 otherwise. */
    int convIndex = -1;

    /** Target post-activation zero fraction for calibration. */
    double outputZeroTarget = 0.0;

    std::size_t macs() const;
    std::size_t synapses() const;
};

/** Options controlling a forward pass. */
struct ForwardOptions
{
    /**
     * Dynamic pruning applied to each conv node's *output* as it is
     * encoded (Section V-E): values with |v| < threshold become
     * zero before feeding downstream layers.
     */
    const PruneConfig *prune = nullptr;

    /** Keep every node's output (otherwise only what's still needed). */
    bool keepAll = false;
};

/**
 * A forward pass paused at a node cut: the outputs of the nodes
 * before `cut` that a node at or past it still reads. Nodes run in
 * id order, so this is all a pass needs to resume, whatever the DAG
 * (google's concat branches included).
 */
struct LiveSet
{
    int cut = 0;
    /** (node id, output) of each live node, in id order. */
    std::vector<std::pair<int, tensor::NeuronTensor>> tensors;
};

/** Result of a forward pass. */
struct ForwardResult
{
    /** Output tensor per node id (empty optional if not kept). */
    std::vector<std::optional<tensor::NeuronTensor>> outputs;
    /** The terminal node's output. */
    tensor::NeuronTensor final;
    /** Pre-softmax logits (equals `final` when no softmax exists). */
    tensor::NeuronTensor logits;
    /** Top-1 class if the network ends in softmax/fc, else -1. */
    int top1 = -1;
};

/** The top-1 class and logits of one forward pass. */
struct Prediction
{
    int top1 = -1;
    tensor::NeuronTensor logits;
};

/**
 * A DNN as a DAG of nodes. Build with the add* methods (they
 * validate shapes eagerly), then run with forward().
 */
class Network
{
  public:
    /** @param seed Root seed for all synthetic weights. */
    Network(std::string name, std::uint64_t seed);

    const std::string &name() const { return name_; }

    int addInput(tensor::Shape3 shape);
    int addConv(const std::string &name, int input, ConvParams p);
    int addPool(const std::string &name, int input, PoolParams p);
    int addLrn(const std::string &name, int input, LrnParams p);
    int addFc(const std::string &name, int input, FcParams p);
    int addConcat(const std::string &name, const std::vector<int> &inputs);
    int addSoftmax(const std::string &name, int input);

    const std::vector<Node> &nodes() const { return nodes_; }
    const Node &node(int id) const { return nodes_.at(id); }
    int nodeCount() const { return static_cast<int>(nodes_.size()); }

    /** Ids of conv nodes in conv-index order. */
    const std::vector<int> &convNodeIds() const { return convNodes_; }
    int convLayerCount() const { return static_cast<int>(convNodes_.size()); }

    /** Total conv multiply operations (all conv nodes). */
    std::size_t totalConvMacs() const;

    /**
     * Run the functional network.
     * Weights are materialised on first use; call calibrate() first
     * if sparsity-realistic activations matter.
     */
    ForwardResult forward(const tensor::NeuronTensor &input,
                          const ForwardOptions &opts = {}) const;

    /**
     * Resume a pass from a live set and run it to the end. Live conv
     * outputs are thresholded by `opts.prune` first. Thresholding is
     * idempotent, so a set captured under the same thresholds
     * resumes exactly; so does one captured unpruned just past the
     * first conv layer `opts.prune` prunes. Under `keepAll` the
     * result holds the outputs from the cut on.
     */
    ForwardResult forward(LiveSet from, const ForwardOptions &opts = {}) const;

    /** The live set at cut 1: the input image (shape-checked). */
    LiveSet start(const tensor::NeuronTensor &input) const;

    /** Run nodes [from.cut, cut) and return the live set at `cut`. */
    LiveSet advance(LiveSet from, int cut,
                    const ForwardOptions &opts = {}) const;

    /**
     * Calibrate conv/fc biases so each node's post-ReLU output zero
     * fraction approaches its outputZeroTarget, using one forward
     * pass over a synthetic calibration input. Idempotent enough
     * for repeated calls; must precede accuracy experiments.
     */
    void calibrate();

    /**
     * The unpruned forward pass's top-1 and logits on
     * synthesizeImage(input shape, imageSeed), memoised: an accuracy
     * study compares every candidate against the same references.
     * Anything that rewrites parameters (calibrate(), adding a node)
     * clears the memo. It keeps the first kReferenceMemo images it
     * sees and computes any later one on every call.
     */
    Prediction reference(std::uint64_t imageSeed) const;

    /** Images whose reference the memo holds at most. */
    static constexpr std::size_t kReferenceMemo = 64;

    /**
     * The unpruned pass's live set at `cut` on synthesizeImage(input
     * shape, imageSeed), memoised beside reference() on the same terms:
     * calibrate() and adding a node clear it, and it keeps the first
     * kReferenceMemo (image, cut) pairs it sees. An accuracy study
     * resumes every candidate from the cut before its first pruned
     * layer. The result is a copy, which a pruned pass may threshold
     * in place.
     */
    LiveSet unprunedPrefix(std::uint64_t imageSeed, int cut) const;

    /** True once calibrate() has run. */
    bool calibrated() const { return calibrated_; }

    /**
     * Default node-output sparsity targets: propagate each conv
     * node's consumers' inputZeroFraction backwards through
     * ReLU/LRN/pool/concat (max pooling concentrates non-zeros, so
     * the pre-pool target is raised accordingly). Called
     * automatically by zoo builders after construction.
     */
    void deriveOutputTargets();

    /** Adjust a conv node's input-sparsity target (zoo calibration). */
    void setConvInputZeroFraction(int convIndex, double zf);

    /** Weights of a node (materialising them if needed). */
    const tensor::FilterBank &weightsOf(int id) const;
    const std::vector<tensor::Fixed16> &biasOf(int id) const;

  private:
    int addNode(Node n);
    /** Generate node `id`'s weights/biases if not yet done. Callers
     *  hold the materialize mutex (proved by -Wthread-safety). */
    void materializeLocked(int id) const
        CNV_REQUIRES(materializeMutex_.m);
    /** reference()'s memo entry for `imageSeed`, or nullptr. */
    const Prediction *memoLocked(std::uint64_t imageSeed) const
        CNV_REQUIRES(materializeMutex_.m);
    /** unprunedPrefix()'s memo entry for (imageSeed, cut), or nullptr. */
    const LiveSet *prefixLocked(std::uint64_t imageSeed, int cut) const
        CNV_REQUIRES(materializeMutex_.m);
    /** Conv node `id`'s weights as the kernel reads them. */
    const kernels::PackedConvWeights &packedWeightsOf(int id) const;
    /** The one forward loop: nodes [from.cut, stop); the live set at
     *  `stop` goes to `*paused` when stop < nodeCount(). */
    ForwardResult run(LiveSet from, int stop, const ForwardOptions &opts,
                      LiveSet *paused) const;

    std::string name_;
    std::uint64_t seed_;
    std::vector<Node> nodes_;
    std::vector<int> convNodes_;
    bool calibrated_ = false;

    // Lazily materialised parameters (logically const state). The
    // mutex makes materialisation safe from concurrent forward()
    // calls (sim::parallelFor image batches); copies and moves get
    // a fresh mutex so Network stays value-semantic.
    struct MemberMutex
    {
        MemberMutex() = default;
        MemberMutex(const MemberMutex &) {}
        MemberMutex(MemberMutex &&) noexcept {}
        MemberMutex &operator=(const MemberMutex &) { return *this; }
        MemberMutex &operator=(MemberMutex &&) noexcept { return *this; }
        core::Mutex m;
    };
    mutable MemberMutex materializeMutex_;
    /** FC weights; conv weights only once weightsOf() unpacks them. */
    mutable std::vector<tensor::FilterBank> weights_
        CNV_GUARDED_BY(materializeMutex_.m);
    mutable std::vector<std::vector<tensor::Fixed16>> biases_
        CNV_GUARDED_BY(materializeMutex_.m);
    mutable std::vector<bool> materialized_
        CNV_GUARDED_BY(materializeMutex_.m);
    /** Conv weights in the kernel's layout (the stored form). */
    mutable std::vector<std::optional<kernels::PackedConvWeights>> packed_
        CNV_GUARDED_BY(materializeMutex_.m);
    /** reference() memo: (image seed, prediction). */
    mutable std::vector<std::pair<std::uint64_t, Prediction>> references_
        CNV_GUARDED_BY(materializeMutex_.m);
    /** unprunedPrefix() memo: ((image seed, cut), live set). */
    mutable std::vector<std::pair<std::pair<std::uint64_t, int>, LiveSet>>
        prefixes_ CNV_GUARDED_BY(materializeMutex_.m);
};

} // namespace cnv::nn

#endif // CNV_NN_NETWORK_H
