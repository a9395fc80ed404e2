/**
 * @file
 * Binary serialisation of neuron tensors (`.cnvt`), so activation
 * traces can be exported, archived, and re-loaded across runs (e.g.,
 * to feed the same trace to external tooling, or to replay a real
 * framework's activations through timing::DirectoryTraceProvider).
 *
 * Format (little-endian, as on every supported host):
 *   magic "CNVT" | u32 version | x | y | z | i16 raw values
 */

#ifndef CNV_TENSOR_SERIALIZE_H
#define CNV_TENSOR_SERIALIZE_H

#include <iosfwd>
#include <string>

#include "tensor/neuron_tensor.h"

namespace cnv::tensor {

/** Write a neuron tensor to a binary stream. */
void save(std::ostream &os, const NeuronTensor &t);

/** Read a neuron tensor written by save(); fatal on bad data. */
NeuronTensor loadTensor(std::istream &is);

/** Write a neuron tensor to a file (fatal on I/O errors). */
void saveTensorFile(const std::string &path, const NeuronTensor &t);

} // namespace cnv::tensor

#endif // CNV_TENSOR_SERIALIZE_H
