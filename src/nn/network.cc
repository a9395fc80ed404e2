#include "nn/network.h"

#include <algorithm>
#include <cmath>

#include "core/arena.h"
#include "core/simd.h"
#include "nn/ops.h"
#include "nn/trace.h"
#include "sim/logging.h"

namespace cnv::nn {

using tensor::FilterBank;
using tensor::Fixed16;
using tensor::NeuronTensor;
using tensor::Shape3;

std::size_t
Node::macs() const
{
    switch (kind) {
      case NodeKind::Conv:
        return conv.macs(inShape);
      case NodeKind::Fc:
        return fc.macs(inShape);
      default:
        return 0;
    }
}

std::size_t
Node::synapses() const
{
    switch (kind) {
      case NodeKind::Conv:
        return conv.synapses(inShape);
      case NodeKind::Fc:
        return fc.synapses(inShape);
      default:
        return 0;
    }
}

Network::Network(std::string name, std::uint64_t seed)
    : name_(std::move(name)), seed_(seed)
{
}

int
Network::addNode(Node n)
{
    // Inputs must already exist: construction order is a valid
    // topological order, which forward() relies on.
    for (int in : n.inputs) {
        if (in < 0 || in >= nodeCount())
            CNV_FATAL("node '{}' references unknown input {}", n.name, in);
    }
    nodes_.push_back(std::move(n));
    // Graph construction is single-threaded by contract, but the
    // parameter slots are lock-guarded state, so take the mutex for
    // the appends rather than exempting them from the analysis.
    const core::MutexLock lock(materializeMutex_.m);
    weights_.emplace_back();
    biases_.emplace_back();
    materialized_.push_back(false);
    packed_.emplace_back();
    references_.clear();
    prefixes_.clear();
    return nodeCount() - 1;
}

int
Network::addInput(Shape3 shape)
{
    Node n;
    n.kind = NodeKind::Input;
    n.name = "input";
    n.inShape = shape;
    n.outShape = shape;
    return addNode(std::move(n));
}

int
Network::addConv(const std::string &name, int input, ConvParams p)
{
    Node n;
    n.kind = NodeKind::Conv;
    n.name = name;
    n.inputs = {input};
    n.inShape = node(input).outShape;
    n.conv = p;
    n.outShape = p.outputShape(n.inShape);
    n.convIndex = static_cast<int>(convNodes_.size());
    const int id = addNode(std::move(n));
    convNodes_.push_back(id);
    return id;
}

int
Network::addPool(const std::string &name, int input, PoolParams p)
{
    Node n;
    n.kind = NodeKind::Pool;
    n.name = name;
    n.inputs = {input};
    n.inShape = node(input).outShape;
    n.pool = p;
    n.outShape = p.outputShape(n.inShape);
    return addNode(std::move(n));
}

int
Network::addLrn(const std::string &name, int input, LrnParams p)
{
    Node n;
    n.kind = NodeKind::Lrn;
    n.name = name;
    n.inputs = {input};
    n.inShape = node(input).outShape;
    n.lrnParams = p;
    n.outShape = n.inShape;
    return addNode(std::move(n));
}

int
Network::addFc(const std::string &name, int input, FcParams p)
{
    Node n;
    n.kind = NodeKind::Fc;
    n.name = name;
    n.inputs = {input};
    n.inShape = node(input).outShape;
    n.fc = p;
    n.outShape = {1, 1, p.outputs};
    return addNode(std::move(n));
}

int
Network::addConcat(const std::string &name, const std::vector<int> &inputs)
{
    CNV_ASSERT(!inputs.empty(), "concat needs inputs");
    Node n;
    n.kind = NodeKind::Concat;
    n.name = name;
    n.inputs = inputs;
    const Shape3 first = node(inputs[0]).outShape;
    int depth = 0;
    for (int in : inputs) {
        const Shape3 s = node(in).outShape;
        if (s.x != first.x || s.y != first.y)
            CNV_FATAL("concat '{}' inputs disagree on spatial size", name);
        depth += s.z;
    }
    n.inShape = {first.x, first.y, depth};
    n.outShape = n.inShape;
    return addNode(std::move(n));
}

int
Network::addSoftmax(const std::string &name, int input)
{
    Node n;
    n.kind = NodeKind::Softmax;
    n.name = name;
    n.inputs = {input};
    n.inShape = node(input).outShape;
    n.outShape = n.inShape;
    return addNode(std::move(n));
}

std::size_t
Network::totalConvMacs() const
{
    std::size_t total = 0;
    for (int id : convNodes_)
        total += node(id).macs();
    return total;
}

void
Network::materializeLocked(int id) const
{
    if (materialized_[id])
        return;
    const Node &n = nodes_[id];
    sim::Rng rng = sim::Rng(seed_).fork(0xabcdULL + id);

    auto gaussianWeights = [&](int count, int fanIn, FilterBank &out,
                               Fixed16 *data) {
        // He-style initialisation keeps activation magnitudes stable
        // through deep stacks; quantised to Q7.8.
        (void)out;
        const double sigma = std::sqrt(2.0 / std::max(1, fanIn));
        for (int i = 0; i < count; ++i)
            data[i] = Fixed16::fromDouble(rng.normal(0.0, sigma));
    };

    if (n.kind == NodeKind::Conv) {
        const int depth = n.inShape.z / n.conv.groups;
        FilterBank w(n.conv.filters, n.conv.fx, n.conv.fy, depth);
        gaussianWeights(static_cast<int>(w.size()),
                        n.conv.fx * n.conv.fy * depth, w, w.data());
        packed_[id] = kernels::packConvWeights(w, n.conv.groups);
        biases_[id].assign(n.conv.filters, Fixed16{});
    } else if (n.kind == NodeKind::Fc) {
        const Shape3 in = n.inShape;
        weights_[id] = FilterBank(n.fc.outputs, in.x, in.y, in.z);
        gaussianWeights(static_cast<int>(weights_[id].size()),
                        static_cast<int>(in.volume()), weights_[id],
                        weights_[id].data());
        biases_[id].assign(n.fc.outputs, Fixed16{});
    }
    materialized_[id] = true;
}

const FilterBank &
Network::weightsOf(int id) const
{
    // One critical section covers materialisation and the read
    // (previously the lock was dropped between the two, which the
    // thread-safety analysis rejects). The returned reference is
    // safe after unlock: a materialised entry is never written
    // again.
    const core::MutexLock lock(materializeMutex_.m);
    materializeLocked(id);
    if (packed_[id] && weights_[id].size() == 0)
        weights_[id] = kernels::unpackConvWeights(*packed_[id]);
    return weights_[id];
}

const std::vector<Fixed16> &
Network::biasOf(int id) const
{
    const core::MutexLock lock(materializeMutex_.m);
    materializeLocked(id);
    return biases_[id];
}

const kernels::PackedConvWeights &
Network::packedWeightsOf(int id) const
{
    const core::MutexLock lock(materializeMutex_.m);
    materializeLocked(id);
    return *packed_[id];
}

namespace {

/**
 * Apply |v| < threshold -> 0 in place (the encoder's pruning), as a
 * select that vectorises: about half the values are zero, so a branch
 * would mispredict. |raw| and the threshold compare in 16 unsigned
 * bits, as core::simd::clampThreshold defines.
 */
void
applyThreshold(NeuronTensor &t, std::int32_t threshold)
{
    if (threshold <= 0)
        return;
    const std::uint16_t floor = core::simd::clampThreshold(threshold);
    for (Fixed16 &v : t) {
        const std::int16_t raw = v.raw();
        const auto mag = static_cast<std::uint16_t>(raw < 0 ? -raw : raw);
        v = Fixed16::fromRaw(mag < floor ? std::int16_t{0} : raw);
    }
}

/**
 * Calibration for one channel: a bias that zeroes the target
 * fraction of values under ReLU, and a weight gain that restores a
 * healthy surviving magnitude (the quantile shift alone would decay
 * activations layer over layer until quantisation noise dominates).
 */
struct ChannelCal
{
    double gain = 1.0;
    double bias = 0.0;
};

ChannelCal
calibrateChannel(std::vector<double> &values, double zeroTarget,
                 double targetMean)
{
    ChannelCal cal;
    if (values.empty())
        return cal;
    const double q = std::clamp(zeroTarget, 0.0, 0.999);
    const std::size_t k = static_cast<std::size_t>(
        q * static_cast<double>(values.size() - 1));
    std::nth_element(values.begin(), values.begin() + k, values.end());
    const double quant = values[k];

    double survivorSum = 0.0;
    std::size_t survivors = 0;
    for (double v : values) {
        if (v > quant) {
            survivorSum += v - quant;
            ++survivors;
        }
    }
    const double mean = survivors ? survivorSum / survivors : 0.0;
    cal.gain = mean > 1e-6 ? std::clamp(targetMean / mean, 0.5, 8.0)
                           : 1.0;
    cal.bias = -quant * cal.gain;
    return cal;
}

} // namespace

LiveSet
Network::start(const NeuronTensor &input) const
{
    const Node &n = nodes_.at(0);
    CNV_ASSERT(n.kind == NodeKind::Input, "node 0 of '{}' is not the input",
               name_);
    if (input.shape() != n.outShape)
        CNV_FATAL("network '{}' expects input {}x{}x{}", name_,
                  n.outShape.x, n.outShape.y, n.outShape.z);
    LiveSet set;
    set.cut = 1;
    set.tensors.emplace_back(0, input);
    return set;
}

ForwardResult
Network::forward(const NeuronTensor &input, const ForwardOptions &opts) const
{
    return run(start(input), nodeCount(), opts, nullptr);
}

ForwardResult
Network::forward(LiveSet from, const ForwardOptions &opts) const
{
    return run(std::move(from), nodeCount(), opts, nullptr);
}

const Prediction *
Network::memoLocked(std::uint64_t imageSeed) const
{
    for (const auto &[seed, pred] : references_)
        if (seed == imageSeed)
            return &pred;
    return nullptr;
}

Prediction
Network::reference(std::uint64_t imageSeed) const
{
    {
        const core::MutexLock lock(materializeMutex_.m);
        if (const Prediction *memo = memoLocked(imageSeed))
            return *memo;
    }
    // The pass runs unlocked (it locks per layer); a racing call for
    // the same image computes the same prediction.
    ForwardResult run =
        forward(synthesizeImage(nodes_.at(0).outShape, imageSeed));
    Prediction pred{run.top1, std::move(run.logits)};
    // A full memo keeps the images it holds: a search cycling through
    // more images than it holds still hits on those.
    const core::MutexLock lock(materializeMutex_.m);
    if (!memoLocked(imageSeed) && references_.size() < kReferenceMemo)
        references_.emplace_back(imageSeed, pred);
    return pred;
}

const LiveSet *
Network::prefixLocked(std::uint64_t imageSeed, int cut) const
{
    for (const auto &[key, set] : prefixes_)
        if (key.first == imageSeed && key.second == cut)
            return &set;
    return nullptr;
}

LiveSet
Network::unprunedPrefix(std::uint64_t imageSeed, int cut) const
{
    {
        const core::MutexLock lock(materializeMutex_.m);
        if (const LiveSet *memo = prefixLocked(imageSeed, cut))
            return *memo;
    }
    // Computed unlocked, like reference().
    LiveSet set =
        advance(start(synthesizeImage(nodes_.at(0).outShape, imageSeed)), cut);
    const core::MutexLock lock(materializeMutex_.m);
    if (!prefixLocked(imageSeed, cut) && prefixes_.size() < kReferenceMemo)
        prefixes_.push_back({{imageSeed, cut}, set});
    return set;
}

LiveSet
Network::advance(LiveSet from, int cut, const ForwardOptions &opts) const
{
    CNV_ASSERT(cut < nodeCount(), "cut {} is past the last node of '{}'",
               cut, name_);
    LiveSet paused;
    run(std::move(from), cut, opts, &paused);
    return paused;
}

ForwardResult
Network::run(LiveSet from, int stop, const ForwardOptions &opts,
             LiveSet *paused) const
{
    CNV_ASSERT(from.cut >= 1 && from.cut <= stop && stop <= nodeCount(),
               "cannot run '{}' from node {} to {}", name_, from.cut, stop);
    ForwardResult result;
    result.outputs.resize(nodes_.size());

    // A node's output is dropped after its last consumer runs, and
    // is live at a cut if that consumer is at or past it.
    std::vector<int> lastUse(nodes_.size(), -1);
    for (int id = 0; id < nodeCount(); ++id)
        for (int in : nodes_[id].inputs)
            lastUse[in] = std::max(lastUse[in], id);

    for (auto &[id, t] : from.tensors) {
        const Node &n = nodes_.at(id);
        if (opts.prune && n.kind == NodeKind::Conv) {
            applyThreshold(t, opts.prune->forConvIndex(
                                  static_cast<std::size_t>(n.convIndex)));
        }
        result.outputs[id] = std::move(t);
    }
    for (int id = 0; id < from.cut; ++id) {
        CNV_ASSERT(lastUse[id] < from.cut || result.outputs[id],
                   "live set at node {} lacks node {}", from.cut, id);
    }

    // One arena serves every conv layer's scratch; reset per layer
    // keeps the footprint at the largest single layer.
    core::Arena arena;
    for (int id = from.cut; id < stop; ++id) {
        const Node &n = nodes_[id];
        NeuronTensor out;
        switch (n.kind) {
          case NodeKind::Input:
            CNV_FATAL("network '{}' has a second input node", name_);
          case NodeKind::Conv:
            arena.reset();
            out = conv2d(*result.outputs[n.inputs[0]], packedWeightsOf(id),
                         biasOf(id), n.conv, arena);
            if (opts.prune) {
                applyThreshold(
                    out, opts.prune->forConvIndex(
                             static_cast<std::size_t>(n.convIndex)));
            }
            break;
          case NodeKind::Pool:
            out = pool2d(*result.outputs[n.inputs[0]], n.pool);
            break;
          case NodeKind::Lrn:
            out = lrn(*result.outputs[n.inputs[0]], n.lrnParams);
            break;
          case NodeKind::Fc:
            out = fullyConnected(*result.outputs[n.inputs[0]], weightsOf(id),
                                 biasOf(id), n.fc);
            break;
          case NodeKind::Concat: {
            std::vector<const NeuronTensor *> ins;
            ins.reserve(n.inputs.size());
            for (int in : n.inputs)
                ins.push_back(&*result.outputs[in]);
            out = concat(ins);
            break;
          }
          case NodeKind::Softmax:
            // Top-1 is decided on the logits: the quantised softmax
            // output can flatten small differences.
            result.logits = *result.outputs[n.inputs[0]];
            result.top1 = argmax(result.logits);
            out = softmax(*result.outputs[n.inputs[0]]);
            break;
        }
        result.outputs[id] = std::move(out);

        if (!opts.keepAll) {
            for (int in : n.inputs) {
                if (lastUse[in] == id)
                    result.outputs[in].reset();
            }
        }
    }

    if (stop < nodeCount()) {
        paused->cut = stop;
        for (int id = 0; id < stop; ++id) {
            if (lastUse[id] >= stop)
                paused->tensors.emplace_back(id,
                                             std::move(*result.outputs[id]));
        }
        return {};
    }

    result.final = *result.outputs.back();
    if (result.top1 < 0) {
        result.logits = result.final;
        if (result.final.shape().x == 1 && result.final.shape().y == 1)
            result.top1 = argmax(result.final);
    }
    if (!opts.keepAll) {
        // The terminal tensor is preserved in `final`.
        result.outputs.back().reset();
    }
    return result;
}

void
Network::calibrate()
{
    // Forward passes over a small batch of synthetic calibration
    // images; at each conv/fc node, per-filter biases (and weight
    // gains) are set so the post-ReLU zero fraction matches the
    // node's target at a healthy magnitude. A batch is needed so
    // layers with tiny spatial extent still see enough samples per
    // filter for a meaningful quantile.
    constexpr int kSamples = 6;
    using Batch = std::vector<NeuronTensor>;

    const Shape3 inShape = nodes_.at(0).outShape;
    Batch inputBatch;
    for (int s = 0; s < kSamples; ++s)
        inputBatch.push_back(synthesizeImage(inShape, seed_ * 977 + s));

    std::vector<std::optional<Batch>> outputs(nodes_.size());
    std::vector<int> uses(nodes_.size(), 0);
    for (const Node &n : nodes_)
        for (int in : n.inputs)
            ++uses[in];

    // Calibration rewrites weights_/biases_ in place, so the whole
    // node sweep runs under the materialize mutex (calibrate is a
    // setup-phase call; nothing else runs concurrently, but the
    // lock discipline is machine-checked either way).
    const core::MutexLock lock(materializeMutex_.m);
    references_.clear();
    prefixes_.clear();
    core::Arena arena;
    for (int id = 0; id < nodeCount(); ++id) {
        Node &n = nodes_[id];
        Batch out(kSamples);
        switch (n.kind) {
          case NodeKind::Input:
            out = inputBatch;
            break;
          case NodeKind::Conv: {
            materializeLocked(id);
            // Pre-activations with zero bias, no ReLU.
            ConvParams raw = n.conv;
            raw.relu = false;
            std::vector<Fixed16> zeroBias(n.conv.filters, Fixed16{});
            Batch pre(kSamples);
            for (int s = 0; s < kSamples; ++s) {
                arena.reset();
                pre[s] = conv2d((*outputs[n.inputs[0]])[s], *packed_[id],
                                zeroBias, raw, arena);
            }
            FilterBank weights = kernels::unpackConvWeights(*packed_[id]);
            sim::Rng chanRng = sim::Rng(seed_).fork(0xc0de + id);
            const int fDepth = weights.shape().z;
            const int fArea = n.conv.fx * n.conv.fy * fDepth;
            std::vector<double> vals;
            for (int f = 0; f < n.conv.filters; ++f) {
                vals.clear();
                for (int s = 0; s < kSamples; ++s)
                    for (int y = 0; y < pre[s].shape().y; ++y)
                        for (int x = 0; x < pre[s].shape().x; ++x)
                            vals.push_back(pre[s].at(x, y, f).toDouble());
                // Channel-rate diversity: some features fire rarely.
                const double target = std::clamp(
                    n.outputZeroTarget + chanRng.normal(0.0, 0.12),
                    0.02, 0.95);
                const ChannelCal cal =
                    calibrateChannel(vals, target, 0.45);
                biases_[id][f] = Fixed16::fromDouble(cal.bias);
                Fixed16 *w = weights.data() +
                             static_cast<std::size_t>(f) * fArea;
                for (int i = 0; i < fArea; ++i)
                    w[i] = Fixed16::fromDouble(w[i].toDouble() * cal.gain);
            }
            // Repack and recompute with the stored (scaled,
            // quantised) weights so calibration sees exactly what
            // forward() will. A bank weightsOf() already handed out
            // is rewritten in place.
            packed_[id] = kernels::packConvWeights(weights, n.conv.groups);
            if (weights_[id].size() != 0)
                weights_[id] = std::move(weights);
            for (int s = 0; s < kSamples; ++s) {
                arena.reset();
                out[s] = conv2d((*outputs[n.inputs[0]])[s], *packed_[id],
                                biases_[id], n.conv, arena);
            }
            break;
          }
          case NodeKind::Fc: {
            materializeLocked(id);
            FcParams raw = n.fc;
            raw.relu = false;
            std::vector<Fixed16> zeroBias(n.fc.outputs, Fixed16{});
            Batch pre(kSamples);
            for (int s = 0; s < kSamples; ++s)
                pre[s] = fullyConnected((*outputs[n.inputs[0]])[s],
                                        weights_[id], zeroBias, raw);
            // FC sparsity does not affect conv timing; a shared
            // shift-and-gain keeps logits in a healthy range.
            std::vector<double> vals;
            for (int s = 0; s < kSamples; ++s)
                for (int f = 0; f < n.fc.outputs; ++f)
                    vals.push_back(pre[s].at(0, 0, f).toDouble());
            const ChannelCal cal =
                calibrateChannel(vals, n.outputZeroTarget, 0.45);
            const Fixed16 bias = Fixed16::fromDouble(cal.bias);
            for (Fixed16 &b : biases_[id])
                b = bias;
            for (std::size_t i = 0; i < weights_[id].size(); ++i) {
                Fixed16 &w = weights_[id].data()[i];
                w = Fixed16::fromDouble(w.toDouble() * cal.gain);
            }
            for (int s = 0; s < kSamples; ++s)
                out[s] = fullyConnected((*outputs[n.inputs[0]])[s],
                                        weights_[id], biases_[id], n.fc);
            break;
          }
          case NodeKind::Pool:
            for (int s = 0; s < kSamples; ++s)
                out[s] = pool2d((*outputs[n.inputs[0]])[s], n.pool);
            break;
          case NodeKind::Lrn:
            for (int s = 0; s < kSamples; ++s)
                out[s] = lrn((*outputs[n.inputs[0]])[s], n.lrnParams);
            break;
          case NodeKind::Concat:
            for (int s = 0; s < kSamples; ++s) {
                std::vector<const NeuronTensor *> ins;
                for (int in : n.inputs)
                    ins.push_back(&(*outputs[in])[s]);
                out[s] = concat(ins);
            }
            break;
          case NodeKind::Softmax:
            for (int s = 0; s < kSamples; ++s)
                out[s] = softmax((*outputs[n.inputs[0]])[s]);
            break;
        }
        outputs[id] = std::move(out);
        for (int in : n.inputs) {
            if (--uses[in] == 0)
                outputs[in].reset();
        }
    }
    calibrated_ = true;
}

void
Network::setConvInputZeroFraction(int convIndex, double zf)
{
    CNV_ASSERT(convIndex >= 0 && convIndex < convLayerCount(),
               "conv index {} out of range", convIndex);
    nodes_[convNodes_[convIndex]].conv.inputZeroFraction = zf;
}

void
Network::deriveOutputTargets()
{
    // Walk consumers of each node, carrying an adjustment factor for
    // intervening max pools (pooling concentrates non-zeros; with
    // spatially correlated activations the effective independent
    // window is ~k rather than k^2 — a documented heuristic).
    std::vector<std::vector<int>> consumers(nodes_.size());
    for (int id = 0; id < nodeCount(); ++id)
        for (int in : nodes_[id].inputs)
            consumers[in].push_back(id);

    for (int cid : convNodes_) {
        // Depth-first through pass-through nodes to the next conv.
        double sum = 0.0;
        int found = 0;
        std::vector<std::pair<int, double>> stack;
        for (int c : consumers[cid])
            stack.emplace_back(c, 1.0);
        while (!stack.empty()) {
            auto [id, poolWindow] = stack.back();
            stack.pop_back();
            const Node &n = nodes_[id];
            if (n.kind == NodeKind::Conv) {
                // Post-pool sparsity ~ p^w, so the pre-pool target
                // for a consumer wanting t is t^(1/w).
                sum += std::pow(n.conv.inputZeroFraction, 1.0 / poolWindow);
                ++found;
                continue;
            }
            double nextExp = poolWindow;
            if (n.kind == NodeKind::Pool && n.pool.op == PoolParams::Op::Max)
                nextExp = poolWindow * n.pool.k;
            if (n.kind == NodeKind::Pool && n.pool.op == PoolParams::Op::Avg)
                continue; // averaging destroys zeros; stop here
            for (int c : consumers[id])
                stack.emplace_back(c, nextExp);
        }
        Node &me = nodes_[cid];
        if (found > 0)
            me.outputZeroTarget = sum / found;
        else
            me.outputZeroTarget = me.conv.inputZeroFraction;
    }
}

} // namespace cnv::nn
