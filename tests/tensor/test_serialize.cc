/** @file Tests for binary tensor serialisation. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "sim/error.h"
#include "sim/logging.h"
#include "sim/rng.h"
#include "tensor/bytes.h"
#include "tensor/serialize.h"

namespace {

using namespace cnv;
using tensor::Fixed16;
using tensor::NeuronTensor;

NeuronTensor
randomTensor(int x, int y, int z, std::uint64_t seed)
{
    NeuronTensor t(x, y, z);
    sim::Rng rng(seed);
    for (Fixed16 &v : t)
        v = Fixed16::fromRaw(static_cast<std::int16_t>(
            rng.uniformInt(std::int64_t{-32768}, std::int64_t{32767})));
    return t;
}

TEST(Serialize, TensorRoundTrip)
{
    const NeuronTensor t = randomTensor(5, 7, 33, 1);
    std::stringstream ss;
    tensor::save(ss, t);
    EXPECT_EQ(tensor::loadTensor(ss), t);
}

TEST(Serialize, EmptyTensorRoundTrip)
{
    const NeuronTensor t(1, 1, 1);
    std::stringstream ss;
    tensor::save(ss, t);
    EXPECT_EQ(tensor::loadTensor(ss), t);
}

TEST(Serialize, BackToBackStreams)
{
    const NeuronTensor a = randomTensor(2, 2, 4, 5);
    const NeuronTensor b = randomTensor(3, 1, 8, 6);
    std::stringstream ss;
    tensor::save(ss, a);
    tensor::save(ss, b);
    EXPECT_EQ(tensor::loadTensor(ss), a);
    EXPECT_EQ(tensor::loadTensor(ss), b);
}

TEST(Serialize, BadMagicIsFatal)
{
    sim::setVerbosity(sim::Verbosity::Silent);
    std::stringstream ss;
    ss << "JUNKxxxxxxxxxxxxxxxx";
    EXPECT_THROW(tensor::loadTensor(ss), sim::FatalError);
    sim::setVerbosity(sim::Verbosity::Info);
}

TEST(Serialize, TruncatedStreamIsFatal)
{
    sim::setVerbosity(sim::Verbosity::Silent);
    const NeuronTensor t = randomTensor(4, 4, 16, 9);
    std::stringstream ss;
    tensor::save(ss, t);
    const std::string full = ss.str();
    std::stringstream cut(full.substr(0, full.size() / 2));
    EXPECT_THROW(tensor::loadTensor(cut), sim::FatalError);
    sim::setVerbosity(sim::Verbosity::Info);
}

/** A header declaring `dims` (2^31 elements in all) followed by a
 *  10-byte payload: loading must fail before allocating 4 GiB. */
std::string
hostileStream(std::vector<std::uint32_t> dims)
{
    std::string bytes("CNVT");
    auto put = [&bytes](std::uint32_t v) {
        char buf[sizeof(v)];
        tensor::storeScalar(buf, v);
        bytes.append(buf, sizeof(buf));
    };
    put(1); // version
    for (std::uint32_t d : dims)
        put(d);
    bytes.append(10, '\0');
    return bytes;
}

/** Fatal from the payload-size check, not from a later short read. */
template <typename Load>
void
expectPayloadCheckFatal(Load load)
{
    try {
        load();
        FAIL() << "expected FatalError";
    } catch (const sim::FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("payload bytes"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Serialize, HostileElementCountIsFatalBeforeAllocating)
{
    sim::setVerbosity(sim::Verbosity::Silent);
    const std::string tensorBytes =
        hostileStream({1u << 15, 1u << 8, 1u << 8});
    expectPayloadCheckFatal([&] {
        std::stringstream ss(tensorBytes);
        tensor::loadTensor(ss);
    });

    // The same bytes on disk, opened the way DirectoryTraceProvider
    // opens a trace: a seekable file.
    const std::string path = ::testing::TempDir() + "cnv_hostile.cnvt";
    {
        std::ofstream os(path, std::ios::binary);
        os.write(tensorBytes.data(),
                 static_cast<std::streamsize>(tensorBytes.size()));
    }
    expectPayloadCheckFatal([&] {
        std::ifstream is(path, std::ios::binary);
        tensor::loadTensor(is);
    });
    std::remove(path.c_str());
    sim::setVerbosity(sim::Verbosity::Info);
}

/** A read-only stream buffer over bytes that cannot seek (a pipe):
 *  tellg() fails, so no payload size is known up front. */
class PipeBuf : public std::streambuf
{
  public:
    explicit PipeBuf(std::string bytes) : bytes_(std::move(bytes))
    {
        setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
    }

  private:
    std::string bytes_;
};

TEST(Serialize, HostileCountOnNonSeekableStreamIsFatal)
{
    // 2^31 declared elements (4 GiB) and 10 payload bytes on a
    // stream that cannot report its length: the load must fail on
    // the short read, having allocated only what it read.
    sim::setVerbosity(sim::Verbosity::Silent);
    PipeBuf buf(hostileStream({1u << 15, 1u << 8, 1u << 8}));
    std::istream is(&buf);
    ASSERT_LT(is.tellg(), 0);
    is.clear();
    EXPECT_THROW(tensor::loadTensor(is), sim::FatalError);
    sim::setVerbosity(sim::Verbosity::Info);
}

TEST(Serialize, NonSeekableStreamRoundTrips)
{
    // Payloads longer than one read chunk load intact from a pipe.
    const NeuronTensor t = randomTensor(40, 30, 9, 17);
    std::stringstream ss;
    tensor::save(ss, t);
    PipeBuf buf(ss.str());
    std::istream is(&buf);
    EXPECT_EQ(tensor::loadTensor(is), t);
}

TEST(Serialize, FileRoundTrip)
{
    const NeuronTensor t = randomTensor(6, 3, 12, 13);
    const std::string path = ::testing::TempDir() + "cnv_tensor_test.bin";
    tensor::saveTensorFile(path, t);
    {
        std::ifstream is(path, std::ios::binary);
        EXPECT_EQ(tensor::loadTensor(is), t);
    }
    std::remove(path.c_str());
}

TEST(Serialize, ScalarHelpersRoundTripUnaligned)
{
    // Place values at every misalignment a u32/i16 can have; the
    // helpers must neither trap nor read neighbouring bytes.
    alignas(8) char buf[64];
    for (std::size_t offset = 0; offset < 8; ++offset) {
        std::fill(std::begin(buf), std::end(buf), '\xAA');
        const std::uint32_t u = 0xDEADBEEFu;
        tensor::storeScalar(buf + offset, u);
        EXPECT_EQ(tensor::loadScalar<std::uint32_t>(buf + offset), u);

        const Fixed16 f = Fixed16::fromRaw(-12345);
        tensor::storeScalar(buf + offset + sizeof(u), f);
        EXPECT_EQ(tensor::loadScalar<Fixed16>(buf + offset + sizeof(u)), f);
        // Neighbouring bytes stay untouched.
        EXPECT_EQ(buf[offset + sizeof(u) + sizeof(f)], '\xAA');
    }
}

TEST(Serialize, RoundTripFromUnalignedBuffer)
{
    // Serialize, then re-parse the byte stream from a deliberately
    // odd-offset copy: every header field and payload element is then
    // read from unaligned storage.
    const NeuronTensor t = randomTensor(5, 3, 17, 21);
    std::stringstream ss;
    tensor::save(ss, t);
    const std::string bytes = ss.str();

    std::vector<char> skewed(bytes.size() + 1);
    std::copy(bytes.begin(), bytes.end(), skewed.begin() + 1);
    std::stringstream replay;
    replay.write(skewed.data() + 1,
                 static_cast<std::streamsize>(bytes.size()));
    EXPECT_EQ(tensor::loadTensor(replay), t);

    // Header fields parse identically through the unaligned view.
    EXPECT_EQ(tensor::loadScalar<std::uint32_t>(skewed.data() + 1 + 8),
              5u); // x dim follows magic+version
}

TEST(Serialize, LargeTensorCrossesStagingChunks)
{
    // > 4096 elements forces writeRaw/readRaw through several staging
    // buffer refills; the content must still round-trip exactly.
    const NeuronTensor t = randomTensor(21, 13, 37, 17); // 10101 elems
    std::stringstream ss;
    tensor::save(ss, t);
    EXPECT_EQ(tensor::loadTensor(ss), t);
}

} // namespace
