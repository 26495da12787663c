// Robustness ("fuzz-lite") suites: the wire decoder and frame reader must
// be total over arbitrary bytes (network input is untrusted), the Config
// parser must never crash on garbage strings, and round-trip properties
// must hold for randomly generated well-formed messages.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "net/framing.h"
#include "net/messages.h"

namespace volley {
namespace {

std::vector<std::byte> random_bytes(Rng& rng, std::size_t max_len) {
  const auto len = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(max_len)));
  std::vector<std::byte> out(len);
  for (auto& b : out) {
    b = static_cast<std::byte>(rng.uniform_int(0, 255));
  }
  return out;
}

TEST(FuzzDecoder, NeverCrashesOnRandomBytes) {
  Rng rng(7001);
  int decoded = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto bytes = random_bytes(rng, 64);
    const auto message = net::decode(bytes);
    if (message) ++decoded;
  }
  // Random bytes occasionally form valid messages (type byte 1..8 with the
  // exact field length); mostly they must be rejected.
  EXPECT_LT(decoded, 2000);
}

TEST(FuzzDecoder, ValidMessagesWithRandomFieldsRoundTrip) {
  Rng rng(7002);
  for (int i = 0; i < 5000; ++i) {
    net::Message message;
    switch (rng.uniform_int(0, 4)) {
      case 0:
        message = net::LocalViolation{
            static_cast<MonitorId>(rng.uniform_int(0, 1 << 30)),
            rng.uniform_int(-(1LL << 40), 1LL << 40),
            rng.normal(0.0, 1e6)};
        break;
      case 1:
        message = net::PollResponse{
            static_cast<MonitorId>(rng.uniform_int(0, 1 << 30)),
            static_cast<std::uint64_t>(rng.uniform_int(0, 1LL << 60)),
            rng.uniform_int(0, 1LL << 40), rng.normal(0.0, 1e9)};
        break;
      case 2:
        message = net::StatsReport{
            static_cast<MonitorId>(rng.uniform_int(0, 1 << 30)),
            rng.uniform(), rng.uniform(), rng.uniform_int(0, 1 << 20)};
        break;
      case 3:
        message = net::AllowanceUpdate{rng.uniform()};
        break;
      default:
        message = net::Bye{
            static_cast<MonitorId>(rng.uniform_int(0, 1 << 30)),
            rng.uniform_int(0, 1 << 30), rng.uniform_int(0, 1 << 30)};
        break;
    }
    const auto bytes = net::encode(message);
    const auto decoded = net::decode(bytes);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(decoded->index(), message.index());
  }
}

TEST(FuzzDecoder, EveryTruncationOfValidMessageIsRejected) {
  const auto bytes = net::encode(net::Message{
      net::PollResponse{3, 99, 1234, 5.5}});
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::span<const std::byte> prefix(bytes.data(), len);
    EXPECT_FALSE(net::decode(prefix).has_value()) << "len=" << len;
  }
}

TEST(FuzzFraming, RandomChunkingPreservesFrames) {
  Rng rng(7003);
  for (int trial = 0; trial < 200; ++trial) {
    // Build a stream of several frames, feed in random-sized chunks, and
    // check the reader yields exactly the original payloads.
    std::vector<std::vector<std::byte>> payloads;
    std::vector<std::byte> stream;
    const int frames = static_cast<int>(rng.uniform_int(1, 8));
    for (int f = 0; f < frames; ++f) {
      auto payload = random_bytes(rng, 200);
      const auto framed = frame_payload(payload);
      stream.insert(stream.end(), framed.begin(), framed.end());
      payloads.push_back(std::move(payload));
    }
    FrameReader reader;
    std::size_t pos = 0;
    std::size_t next_expected = 0;
    while (pos < stream.size()) {
      const auto chunk = static_cast<std::size_t>(rng.uniform_int(
          1, static_cast<std::int64_t>(stream.size() - pos)));
      reader.feed(std::span<const std::byte>(stream.data() + pos, chunk));
      pos += chunk;
      while (auto frame = reader.next()) {
        ASSERT_LT(next_expected, payloads.size());
        EXPECT_EQ(*frame, payloads[next_expected]);
        ++next_expected;
      }
    }
    EXPECT_EQ(next_expected, payloads.size());
    EXPECT_EQ(reader.buffered_bytes(), 0u);
  }
}

TEST(FuzzFraming, GarbageStreamEitherYieldsFramesOrThrowsOnce) {
  // Arbitrary bytes interpreted as frames must never read out of bounds:
  // the reader either produces (garbage) frames, waits for more input, or
  // fails once on an oversized length (it no longer throws: a failed reader
  // drops its buffer and yields nothing more) — never undefined behaviour.
  // (Under ASan this test is the real check; here we assert it ends with
  // sane state.)
  Rng rng(7004);
  for (int trial = 0; trial < 500; ++trial) {
    FrameReader reader;
    const auto junk = random_bytes(rng, 512);
    reader.feed(junk);
    while (reader.next()) {
    }
    EXPECT_LE(reader.buffered_bytes(), junk.size());
    if (reader.failed()) {
      EXPECT_EQ(reader.buffered_bytes(), 0u);
      reader.feed(junk);
      EXPECT_FALSE(reader.next().has_value());
    }
  }
}

TEST(FuzzConfig, ParserIsTotalOverPrintableGarbage) {
  Rng rng(7005);
  const char charset[] = "abc=123 #\n\r\t.-_";
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text;
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 64));
    for (std::size_t i = 0; i < len; ++i) {
      text += charset[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sizeof(charset) - 2)))];
    }
    try {
      const auto cfg = Config::from_text(text);
      (void)cfg;
    } catch (const std::invalid_argument&) {
      // tokens without '=' are rejected loudly — that is the contract
    }
  }
}

}  // namespace
}  // namespace volley
