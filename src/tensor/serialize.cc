#include "tensor/serialize.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <vector>

#include "sim/logging.h"
#include "tensor/bytes.h"

namespace cnv::tensor {

namespace {

constexpr std::uint32_t kVersion = 1;
/** The `.cnvt` magic (no terminating NUL). */
constexpr char kMagic[4] = {'C', 'N', 'V', 'T'};

void
writeU32(std::ostream &os, std::uint32_t v)
{
    char buf[sizeof(v)];
    storeScalar(buf, v);
    os.write(buf, sizeof(buf));
}

std::uint32_t
readU32(std::istream &is)
{
    char buf[sizeof(std::uint32_t)] = {};
    is.read(buf, sizeof(buf));
    if (!is)
        CNV_FATAL("truncated tensor stream");
    return loadScalar<std::uint32_t>(buf);
}

void
expectMagic(std::istream &is)
{
    char buf[sizeof(kMagic)] = {};
    is.read(buf, sizeof(buf));
    if (!is || std::memcmp(buf, kMagic, sizeof(kMagic)) != 0)
        CNV_FATAL("bad magic in tensor stream (expected {})",
                  std::string(kMagic, sizeof(kMagic)));
    const std::uint32_t version = readU32(is);
    if (version != kVersion)
        CNV_FATAL("unsupported tensor stream version {}", version);
}

// Bulk element I/O goes through a fixed staging buffer: memcpy in or
// out of the Fixed16 array keeps the stream interface on plain char
// without ever aliasing Fixed16 storage through a char* lvalue.
constexpr std::size_t kStageElems = 4096;

void
writeRaw(std::ostream &os, const Fixed16 *data, std::size_t count)
{
    static_assert(sizeof(Fixed16) == sizeof(std::int16_t));
    std::array<char, kStageElems * sizeof(Fixed16)> stage;
    for (std::size_t done = 0; done < count;) {
        const std::size_t n = std::min(count - done, kStageElems);
        std::memcpy(stage.data(), data + done, n * sizeof(Fixed16));
        os.write(stage.data(),
                 static_cast<std::streamsize>(n * sizeof(Fixed16)));
        done += n;
    }
    if (!os)
        CNV_FATAL("tensor write failed");
}

/**
 * True once the stream is known to hold `count` more elements; fatal
 * if it is known not to. Only seekable streams can report what is
 * left; on others this returns false and the caller must not trust
 * the count.
 */
bool
payloadPresent(std::istream &is, std::uint64_t count)
{
    const std::streamoff here = is.tellg();
    if (here < 0) {
        is.clear();
        return false;
    }
    is.seekg(0, std::ios::end);
    const std::streamoff end = is.tellg();
    is.clear();
    is.seekg(here);
    if (end < here)
        return false;
    const auto left = static_cast<std::uint64_t>(end - here);
    if (count > left / sizeof(Fixed16))
        CNV_FATAL("tensor stream declares {} elements but holds only {} "
                  "payload bytes",
                  count, left);
    return true;
}

/**
 * Read `count` raw elements. A hostile header may declare up to
 * 2^32 elements (8 GiB), so memory follows the bytes actually read:
 * a seekable stream is checked before the one allocation, and on any
 * other the payload grows in staging-buffer chunks, so a short
 * stream fails having allocated about what it held.
 */
std::vector<Fixed16>
readPayload(std::istream &is, std::uint64_t count)
{
    std::vector<Fixed16> data;
    if (payloadPresent(is, count))
        data.reserve(count);
    std::array<char, kStageElems * sizeof(Fixed16)> stage;
    while (data.size() < count) {
        const std::size_t done = data.size();
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(count - done, kStageElems));
        is.read(stage.data(),
                static_cast<std::streamsize>(n * sizeof(Fixed16)));
        if (!is)
            CNV_FATAL("truncated tensor stream");
        data.resize(done + n);
        std::memcpy(data.data() + done, stage.data(), n * sizeof(Fixed16));
    }
    return data;
}

} // namespace

void
save(std::ostream &os, const NeuronTensor &t)
{
    os.write(kMagic, sizeof(kMagic));
    writeU32(os, kVersion);
    writeU32(os, static_cast<std::uint32_t>(t.shape().x));
    writeU32(os, static_cast<std::uint32_t>(t.shape().y));
    writeU32(os, static_cast<std::uint32_t>(t.shape().z));
    writeRaw(os, t.data(), t.size());
}

NeuronTensor
loadTensor(std::istream &is)
{
    expectMagic(is);
    const int x = static_cast<int>(readU32(is));
    const int y = static_cast<int>(readU32(is));
    const int z = static_cast<int>(readU32(is));
    if (x < 0 || y < 0 || z < 0 ||
        static_cast<std::uint64_t>(x) * y * z > (1ULL << 32))
        CNV_FATAL("implausible tensor dimensions {}x{}x{}", x, y, z);
    return NeuronTensor(
        Shape3{x, y, z},
        readPayload(is, static_cast<std::uint64_t>(x) * y * z));
}

void
saveTensorFile(const std::string &path, const NeuronTensor &t)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        CNV_FATAL("cannot open '{}' for writing", path);
    save(os, t);
}

} // namespace cnv::tensor
