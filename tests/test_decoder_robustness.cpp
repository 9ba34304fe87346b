// Robustness of every wire-format decoder against arbitrary bytes:
// random headers/trailers/files must never crash, throw unexpectedly, or
// be mis-accepted as valid protocol messages at any meaningful rate.
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "choir/control.hpp"
#include "common/expect.hpp"
#include "common/rng.hpp"
#include "net/ptp_protocol.hpp"
#include "pktio/headers.hpp"
#include "trace/pcap.hpp"
#include "trace/tag.hpp"
#include "trace/trace_file.hpp"

namespace choir {
namespace {

pktio::Frame random_frame(Rng& rng) {
  pktio::Frame frame;
  frame.wire_len = static_cast<std::uint32_t>(rng.uniform_u64(2000));
  frame.header_len = static_cast<std::uint16_t>(
      rng.uniform_u64(pktio::kMaxHeaderBytes + 1));
  frame.has_trailer = rng.chance(0.5);
  for (auto& b : frame.header) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  for (auto& b : frame.trailer) {
    b = static_cast<std::uint8_t>(rng.next_u64());
  }
  return frame;
}

TEST(DecoderRobustness, HeaderParserNeverCrashes) {
  Rng rng(1);
  int valid = 0;
  for (int i = 0; i < 20000; ++i) {
    const pktio::Frame frame = random_frame(rng);
    if (pktio::parse_eth_ipv4_udp(frame).valid) ++valid;
  }
  // Random bytes almost never form a well-formed Eth+IPv4+UDP stack.
  EXPECT_LT(valid, 20);
}

TEST(DecoderRobustness, TagDecoderRejectsRandomTrailers) {
  Rng rng(2);
  int accepted = 0;
  for (int i = 0; i < 50000; ++i) {
    std::array<std::uint8_t, pktio::kTrailerBytes> trailer;
    for (auto& b : trailer) b = static_cast<std::uint8_t>(rng.next_u64());
    if (trace::decode_tag(trailer).has_value()) ++accepted;
  }
  // 16-bit magic: expect ~ 50000 / 65536 false accepts.
  EXPECT_LT(accepted, 10);
}

TEST(DecoderRobustness, ControlDecoderNeedsPortAndMagic) {
  Rng rng(3);
  for (int i = 0; i < 20000; ++i) {
    const pktio::Frame frame = random_frame(rng);
    const auto msg = app::decode_control(frame);
    if (msg.has_value()) {
      // Acceptance implies both the UDP control port and the magic
      // matched — verify the invariant rather than assume a rate.
      const auto parsed = pktio::parse_eth_ipv4_udp(frame);
      ASSERT_TRUE(parsed.valid);
      ASSERT_EQ(parsed.flow.dst_port, app::kControlPort);
    }
  }
}

TEST(DecoderRobustness, PtpDecoderRejectsRandomFrames) {
  Rng rng(4);
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    if (net::decode_ptp(random_frame(rng)).has_value()) ++accepted;
  }
  EXPECT_LT(accepted, 5);
}

struct FileFuzz : ::testing::Test {
  std::string path;
  void SetUp() override {
    path = ::testing::TempDir() + "choir_fuzz_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
  }
  void TearDown() override { std::remove(path.c_str()); }

  void write_random(std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (std::size_t i = 0; i < n; ++i) {
      const char b = static_cast<char>(rng.next_u64());
      out.write(&b, 1);
    }
  }

  void write_bytes(const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  template <typename T>
  static void append(std::string& bytes, T value) {
    bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
  }
};

TEST_F(FileFuzz, TraceReaderThrowsNeverCrashes) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    write_random(16 + seed * 13, seed);
    EXPECT_THROW(trace::read_trace(path), Error) << "seed " << seed;
  }
}

TEST_F(FileFuzz, PcapReaderThrowsNeverCrashes) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    write_random(16 + seed * 13, seed);
    EXPECT_THROW(trace::read_pcap(path), Error) << "seed " << seed;
  }
}

TEST_F(FileFuzz, TraceReaderThrowsTypedFormatError) {
  // Malformed external input is a recoverable FormatError, never the
  // generic Error that CHOIR_EXPECT raises for API misuse.
  write_bytes("NOTATRCF");
  EXPECT_THROW(trace::read_trace(path), FormatError);

  // Valid magic, truncated before the version field.
  write_bytes("CHOIRTRC");
  EXPECT_THROW(trace::read_trace(path), FormatError);

  // Unsupported version.
  std::string bad_version = "CHOIRTRC";
  append<std::uint32_t>(bad_version, 0xdeadbeef);
  append<std::uint64_t>(bad_version, 0);
  write_bytes(bad_version);
  EXPECT_THROW(trace::read_trace(path), FormatError);

  // Record count far beyond what the file can hold: must be rejected
  // before any allocation is sized from it.
  std::string huge_count = "CHOIRTRC";
  append<std::uint32_t>(huge_count, trace::kTraceVersion);
  append<std::uint64_t>(huge_count, ~0ULL);
  write_bytes(huge_count);
  EXPECT_THROW(trace::read_trace(path), FormatError);

  EXPECT_THROW(trace::read_trace(path + ".does-not-exist"), FormatError);
}

TEST_F(FileFuzz, TraceReaderRejectsImplausibleRecordFields) {
  // A structurally valid file whose record declares header_len beyond
  // the fixed header array: typed rejection, no overread.
  trace::Capture cap("fields");
  pktio::Frame frame;
  frame.wire_len = 300;
  frame.header_len = pktio::kEthIpv4UdpLen;
  cap.append(trace::CaptureRecord::from_frame(frame, 1));
  trace::write_trace(cap, path);

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), {});
  in.close();
  // Record layout after the 20-byte file header: i64 timestamp,
  // u32 wire_len, u16 header_len.
  const std::size_t header_len_off = 20 + 8 + 4;
  bytes[header_len_off] = '\xff';
  bytes[header_len_off + 1] = '\xff';
  write_bytes(bytes);
  EXPECT_THROW(trace::read_trace(path), FormatError);

  // wire_len smaller than header_len is likewise implausible.
  trace::write_trace(cap, path);
  std::ifstream in2(path, std::ios::binary);
  std::string bytes2((std::istreambuf_iterator<char>(in2)), {});
  in2.close();
  const std::size_t wire_len_off = 20 + 8;
  bytes2[wire_len_off] = 0;
  bytes2[wire_len_off + 1] = 0;
  bytes2[wire_len_off + 2] = 0;
  bytes2[wire_len_off + 3] = 0;
  write_bytes(bytes2);
  EXPECT_THROW(trace::read_trace(path), FormatError);
}

TEST_F(FileFuzz, PcapReaderThrowsTypedFormatError) {
  // Wrong magic.
  std::string bad_magic;
  append<std::uint32_t>(bad_magic, 0x12345678u);
  write_bytes(bad_magic);
  EXPECT_THROW(trace::read_pcap(path), FormatError);

  // Truncated global header after a valid magic.
  std::string truncated;
  append<std::uint32_t>(truncated, 0xa1b23c4du);
  append<std::uint16_t>(truncated, 2);
  write_bytes(truncated);
  EXPECT_THROW(trace::read_pcap(path), FormatError);

  auto global_header = [](std::uint32_t snaplen, std::uint32_t linktype) {
    std::string bytes;
    append<std::uint32_t>(bytes, 0xa1b23c4du);
    append<std::uint16_t>(bytes, 2);
    append<std::uint16_t>(bytes, 4);
    append<std::int32_t>(bytes, 0);
    append<std::uint32_t>(bytes, 0);
    append<std::uint32_t>(bytes, snaplen);
    append<std::uint32_t>(bytes, linktype);
    return bytes;
  };

  // Unsupported linktype and implausible snaplen.
  write_bytes(global_header(2048, 101));
  EXPECT_THROW(trace::read_pcap(path), FormatError);
  write_bytes(global_header(0, 1));
  EXPECT_THROW(trace::read_pcap(path), FormatError);

  // Record claiming more captured bytes than the snaplen allows.
  std::string bad_record = global_header(128, 1);
  append<std::uint32_t>(bad_record, 0);    // sec
  append<std::uint32_t>(bad_record, 0);    // frac
  append<std::uint32_t>(bad_record, 256);  // incl > snaplen
  append<std::uint32_t>(bad_record, 256);  // orig
  write_bytes(bad_record);
  EXPECT_THROW(trace::read_pcap(path), FormatError);

  // Record header promising more packet bytes than the file holds.
  std::string short_packet = global_header(2048, 1);
  append<std::uint32_t>(short_packet, 0);
  append<std::uint32_t>(short_packet, 0);
  append<std::uint32_t>(short_packet, 64);
  append<std::uint32_t>(short_packet, 64);
  short_packet.append(10, '\0');  // only 10 of the promised 64 bytes
  write_bytes(short_packet);
  EXPECT_THROW(trace::read_pcap(path), FormatError);

  EXPECT_THROW(trace::read_pcap(path + ".does-not-exist"), FormatError);
}

TEST_F(FileFuzz, TruncatedValidTraceRejectedAtEveryPrefix) {
  // Chop a valid two-record trace at every length: each prefix must be
  // rejected with a typed FormatError (or load fully at full length).
  trace::Capture cap("prefix");
  pktio::Frame frame;
  frame.wire_len = 400;
  cap.append(trace::CaptureRecord::from_frame(frame, 10));
  cap.append(trace::CaptureRecord::from_frame(frame, 20));
  trace::write_trace(cap, path);
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), {});
  in.close();
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    write_bytes(bytes.substr(0, n));
    EXPECT_THROW(trace::read_trace(path), FormatError) << "prefix " << n;
  }
  write_bytes(bytes);
  EXPECT_EQ(trace::read_trace(path).size(), 2u);
}

TEST_F(FileFuzz, CorruptedValidTraceRejectedOrSane) {
  // Start from a valid file and flip bytes: the reader must either throw
  // or return something structurally sane (never crash or hang).
  trace::Capture cap("fuzz");
  pktio::Frame frame;
  frame.wire_len = 500;
  cap.append(trace::CaptureRecord::from_frame(frame, 123));
  cap.append(trace::CaptureRecord::from_frame(frame, 456));
  trace::write_trace(cap, path);

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)), {});
  in.close();
  Rng rng(99);
  for (int round = 0; round < 200; ++round) {
    std::string mutated = bytes;
    mutated[rng.uniform_u64(mutated.size())] ^=
        static_cast<char>(1 + rng.uniform_u64(255));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << mutated;
    out.close();
    try {
      const trace::Capture loaded = trace::read_trace(path);
      EXPECT_LE(loaded.size(), 2u);
    } catch (const Error&) {
      // rejection is fine
    }
  }
}

// --- Seeded mutation of valid files --------------------------------------

/// A valid capture with real Eth/IPv4/UDP headers, mixed frame sizes and
/// evaluation tags on most packets.
trace::Capture seed_capture(std::size_t n) {
  Rng rng(7);
  trace::Capture cap("seed");
  for (std::size_t i = 0; i < n; ++i) {
    pktio::Frame frame;
    frame.wire_len = static_cast<std::uint32_t>(64 + rng.uniform_u64(300));
    pktio::FlowAddress flow;
    flow.src_mac = pktio::mac_for_node(1);
    flow.dst_mac = pktio::mac_for_node(2);
    flow.src_ip = pktio::ip_for_node(1);
    flow.dst_ip = pktio::ip_for_node(2);
    flow.src_port = static_cast<std::uint16_t>(1000 + i % 7);
    flow.dst_port = 9;
    pktio::write_eth_ipv4_udp(frame, flow);
    frame.payload_token = rng.next_u64();
    if (!rng.chance(0.2)) trace::stamp(frame, trace::Tag{1, 0, i});
    const Ns jitter = static_cast<Ns>(rng.uniform_u64(50));
    cap.append(trace::CaptureRecord::from_frame(
        frame, static_cast<Ns>(i) * 700 + jitter));
  }
  return cap;
}

/// One of three mutations, chosen by the seed: flip a few bytes, cut the
/// file short, or overwrite a run of bytes (often a whole field at a
/// record boundary, so length and count fields get hit) with random data.
std::string mutate(const std::string& valid, std::size_t header_bytes,
                   std::size_t record_bytes, Rng& rng) {
  std::string bytes = valid;
  switch (rng.uniform_u64(3)) {
    case 0: {
      const std::uint64_t flips = 1 + rng.uniform_u64(8);
      for (std::uint64_t k = 0; k < flips; ++k) {
        bytes[rng.uniform_u64(bytes.size())] ^=
            static_cast<char>(1 + rng.uniform_u64(255));
      }
      break;
    }
    case 1:
      bytes.resize(rng.uniform_u64(bytes.size()));
      break;
    default: {
      std::size_t at = rng.uniform_u64(bytes.size());
      if (rng.chance(0.5)) {
        const std::size_t records =
            (bytes.size() - header_bytes) / record_bytes;
        at = rng.chance(0.2) ? rng.uniform_u64(header_bytes)
                             : header_bytes +
                                   rng.uniform_u64(records) * record_bytes +
                                   rng.uniform_u64(16);
      }
      const std::size_t len = 1 + rng.uniform_u64(8);
      for (std::size_t k = at; k < at + len && k < bytes.size(); ++k) {
        bytes[k] = static_cast<char>(rng.next_u64());
      }
      break;
    }
  }
  return bytes;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Runs `load`; returns "" when it loads and the FormatError text when
/// it rejects. Any other exception fails the test.
template <typename Load>
std::string load_outcome(Load load, std::uint64_t seed, const char* loader) {
  try {
    load();
    return "";
  } catch (const FormatError& e) {
    const std::string what = e.what();
    EXPECT_FALSE(what.empty()) << loader << " seed " << seed;
    return what;
  } catch (const std::exception& e) {
    ADD_FAILURE() << loader << " seed " << seed
                  << " threw a non-FormatError: " << e.what();
    return "<other>";
  }
}

constexpr std::uint64_t kMutationSeeds = 400;

TEST_F(FileFuzz, MutatedTraceLoadsOrRejectsAlikeInBothLoaders) {
  trace::write_trace(seed_capture(24), path);
  const std::string valid = slurp(path);
  int loaded = 0;
  int rejected = 0;
  for (std::uint64_t seed = 0; seed < kMutationSeeds; ++seed) {
    Rng rng(seed);
    write_bytes(mutate(valid, trace::kTraceHeaderBytes,
                       trace::kTraceRecordBytes, rng));
    trace::Capture read;
    const std::string read_error = load_outcome(
        [&] { read = trace::read_trace(path); }, seed, "read_trace");
    std::optional<trace::MappedCapture> mapped;
    const std::string mapped_error = load_outcome(
        [&] { mapped.emplace(path); }, seed, "MappedCapture");
    ASSERT_EQ(mapped_error, read_error) << "seed " << seed;
    if (!read_error.empty()) {
      ++rejected;
      continue;
    }
    ++loaded;
    ASSERT_EQ(mapped->size(), read.size()) << "seed " << seed;
    for (std::size_t i = 0; i < read.size(); ++i) {
      const trace::CaptureRecord r = mapped->record(i);
      ASSERT_LE(r.header_len, pktio::kMaxHeaderBytes);
      ASSERT_GE(r.wire_len, r.header_len);
      ASSERT_EQ(r.timestamp, read[i].timestamp) << "seed " << seed;
      ASSERT_EQ(r.wire_len, read[i].wire_len) << "seed " << seed;
      ASSERT_EQ(r.header_len, read[i].header_len) << "seed " << seed;
      ASSERT_EQ(r.header, read[i].header) << "seed " << seed;
      ASSERT_EQ(r.has_trailer, read[i].has_trailer) << "seed " << seed;
      ASSERT_EQ(r.trailer, read[i].trailer) << "seed " << seed;
      ASSERT_EQ(r.payload_token, read[i].payload_token) << "seed " << seed;
    }
    const core::Trial from_map = mapped->to_trial();
    const core::Trial from_read = read.to_trial();
    ASSERT_EQ(from_map.size(), from_read.size());
    for (std::size_t i = 0; i < from_read.size(); ++i) {
      ASSERT_EQ(from_map[i].id.hi, from_read[i].id.hi) << "seed " << seed;
      ASSERT_EQ(from_map[i].id.lo, from_read[i].id.lo) << "seed " << seed;
    }
  }
  // Both outcomes occur often, so the loop exercises acceptance and
  // every rejection path rather than one of them.
  EXPECT_GT(loaded, 40);
  EXPECT_GT(rejected, 40);
}

TEST_F(FileFuzz, MutatedPcapLoadsOrRejectsWithFormatError) {
  trace::write_pcap(seed_capture(24), path);
  const std::string valid = slurp(path);
  // pcap records vary in length; the record stride here only biases
  // where whole-field overwrites land.
  constexpr std::size_t kGlobalHeader = 24;
  constexpr std::size_t kRecordHeader = 16;
  int loaded = 0;
  int rejected = 0;
  for (std::uint64_t seed = 0; seed < kMutationSeeds; ++seed) {
    Rng rng(seed);
    write_bytes(mutate(valid, kGlobalHeader, kRecordHeader + 64, rng));
    trace::Capture read;
    const std::string error = load_outcome(
        [&] { read = trace::read_pcap(path); }, seed, "read_pcap");
    if (!error.empty()) {
      ++rejected;
      continue;
    }
    ++loaded;
    for (std::size_t i = 0; i < read.size(); ++i) {
      ASSERT_LE(read[i].header_len, pktio::kMaxHeaderBytes) << "seed " << seed;
    }
    EXPECT_EQ(read.to_trial().size(), read.size()) << "seed " << seed;
  }
  EXPECT_GT(loaded, 40);
  EXPECT_GT(rejected, 40);
}

}  // namespace
}  // namespace choir
