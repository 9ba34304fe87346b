#include "trace/pcap.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/expect.hpp"
#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include "pktio/headers.hpp"
#include "trace/tag.hpp"

namespace choir::trace {
namespace {

struct PcapTest : ::testing::Test {
  std::string path;
  void SetUp() override {
    path = ::testing::TempDir() + "choir_pcap_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".pcap";
  }
  void TearDown() override { std::remove(path.c_str()); }

  std::vector<std::uint8_t> slurp() {
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
  }
};

Capture one_packet_capture(Ns ts = seconds(1) + 500) {
  pktio::Frame frame;
  frame.wire_len = 100;
  pktio::FlowAddress flow;
  flow.src_mac = pktio::mac_for_node(1);
  flow.dst_mac = pktio::mac_for_node(2);
  flow.src_ip = pktio::ip_for_node(1);
  flow.dst_ip = pktio::ip_for_node(2);
  flow.src_port = 7;
  flow.dst_port = 8;
  pktio::write_eth_ipv4_udp(frame, flow);
  frame.payload_token = 0xFEED;
  stamp(frame, Tag{1, 0, 42});
  Capture cap("pcap");
  cap.append(CaptureRecord::from_frame(frame, ts));
  return cap;
}

TEST_F(PcapTest, GlobalHeaderIsNanosecondPcap) {
  write_pcap(one_packet_capture(), path);
  const auto bytes = slurp();
  ASSERT_GE(bytes.size(), 24u);
  std::uint32_t magic;
  std::memcpy(&magic, bytes.data(), 4);
  EXPECT_EQ(magic, 0xa1b23c4du);
}

TEST_F(PcapTest, RecordHeaderCarriesTimestampAndLengths) {
  write_pcap(one_packet_capture(seconds(3) + 123), path);
  const auto bytes = slurp();
  ASSERT_GE(bytes.size(), 24u + 16u + 100u);
  std::uint32_t sec, nsec, incl, orig;
  std::memcpy(&sec, bytes.data() + 24, 4);
  std::memcpy(&nsec, bytes.data() + 28, 4);
  std::memcpy(&incl, bytes.data() + 32, 4);
  std::memcpy(&orig, bytes.data() + 36, 4);
  EXPECT_EQ(sec, 3u);
  EXPECT_EQ(nsec, 123u);
  EXPECT_EQ(incl, 100u);
  EXPECT_EQ(orig, 100u);
}

TEST_F(PcapTest, FrameBytesContainHeadersAndTrailer) {
  write_pcap(one_packet_capture(), path);
  const auto bytes = slurp();
  const std::uint8_t* frame = bytes.data() + 24 + 16;
  // Ethernet destination = mac_for_node(2).
  EXPECT_EQ(0, std::memcmp(frame, pktio::mac_for_node(2).bytes.data(), 6));
  // Trailer occupies the last 16 bytes and decodes back to the tag.
  std::array<std::uint8_t, 16> trailer;
  std::memcpy(trailer.data(), frame + 100 - 16, 16);
  const auto tag = decode_tag(trailer);
  ASSERT_TRUE(tag.has_value());
  EXPECT_EQ(tag->sequence, 42u);
}

TEST_F(PcapTest, PayloadFillerIsDeterministic) {
  write_pcap(one_packet_capture(), path);
  const auto first = slurp();
  write_pcap(one_packet_capture(), path);
  EXPECT_EQ(slurp(), first);
}

TEST_F(PcapTest, SnaplenTruncatesInclNotOrig) {
  PcapOptions opt;
  opt.snaplen = 60;
  write_pcap(one_packet_capture(), path, opt);
  const auto bytes = slurp();
  std::uint32_t incl, orig;
  std::memcpy(&incl, bytes.data() + 32, 4);
  std::memcpy(&orig, bytes.data() + 36, 4);
  EXPECT_EQ(incl, 60u);
  EXPECT_EQ(orig, 100u);
  EXPECT_EQ(bytes.size(), 24u + 16u + 60u);
}

TEST_F(PcapTest, NegativeTimestampClampedToEpoch) {
  write_pcap(one_packet_capture(-5), path);
  const auto bytes = slurp();
  std::uint32_t sec, nsec;
  std::memcpy(&sec, bytes.data() + 24, 4);
  std::memcpy(&nsec, bytes.data() + 28, 4);
  EXPECT_EQ(sec, 0u);
  EXPECT_EQ(nsec, 0u);
}

TEST_F(PcapTest, ReadBackRecoversStructure) {
  const Capture original = one_packet_capture(seconds(2) + 77);
  write_pcap(original, path);
  const Capture loaded = read_pcap(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].timestamp, seconds(2) + 77);
  EXPECT_EQ(loaded[0].wire_len, 100u);
  EXPECT_EQ(loaded[0].header_len, pktio::kEthIpv4UdpLen);
  ASSERT_TRUE(loaded[0].has_trailer);
  EXPECT_EQ(decode_tag(loaded[0].trailer)->sequence, 42u);
  // Header bytes round-trip exactly.
  for (int i = 0; i < pktio::kEthIpv4UdpLen; ++i) {
    EXPECT_EQ(loaded[0].header[i], original[0].header[i]);
  }
}

TEST_F(PcapTest, ReadBackTrialMatchesOriginal) {
  Capture cap("multi");
  for (std::uint64_t s = 0; s < 64; ++s) {
    pktio::Frame frame;
    frame.wire_len = 200;
    pktio::FlowAddress flow;
    flow.src_mac = pktio::mac_for_node(1);
    flow.dst_mac = pktio::mac_for_node(2);
    flow.src_ip = pktio::ip_for_node(1);
    flow.dst_ip = pktio::ip_for_node(2);
    pktio::write_eth_ipv4_udp(frame, flow);
    stamp(frame, Tag{3, 0, s});
    cap.append(CaptureRecord::from_frame(frame, 1000 + 280 * static_cast<Ns>(s)));
  }
  write_pcap(cap, path);
  const Capture loaded = read_pcap(path);
  const auto cmp =
      core::compare_trials(cap.to_trial(), loaded.to_trial());
  EXPECT_EQ(cmp.metrics.kappa, 1.0);
}

TEST_F(PcapTest, SnaplenTruncationDropsTrailerSafely) {
  PcapOptions opt;
  opt.snaplen = 60;  // cuts off the trailer
  write_pcap(one_packet_capture(), path, opt);
  const Capture loaded = read_pcap(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_FALSE(loaded[0].has_trailer);
  EXPECT_EQ(loaded[0].wire_len, 100u);  // orig preserved
}

TEST_F(PcapTest, ReadRejectsGarbage) {
  std::ofstream out(path, std::ios::binary);
  out << "this is not a pcap";
  out.close();
  EXPECT_THROW(read_pcap(path), Error);
}

TEST_F(PcapTest, ReadRejectsTruncatedRecord) {
  write_pcap(one_packet_capture(), path);
  ASSERT_EQ(truncate(path.c_str(), 24 + 16 + 10), 0);
  EXPECT_THROW(read_pcap(path), Error);
}

std::string format_error_of(const std::string& path) {
  try {
    read_pcap(path);
  } catch (const FormatError& e) {
    return e.what();
  }
  ADD_FAILURE() << "read_pcap accepted a corrupt file";
  return "";
}

TEST_F(PcapTest, PerRecordErrorTextNamesThePath) {
  // Record 0's header sits at byte 24 (after the global header):
  // ts_sec, ts_frac, incl_len, orig_len.
  write_pcap(one_packet_capture(), path);
  ASSERT_EQ(truncate(path.c_str(), 24 + 9), 0);
  EXPECT_EQ(format_error_of(path), "truncated pcap record header: " + path);

  write_pcap(one_packet_capture(), path);
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(24 + 12);
    const std::uint32_t orig = 50;  // below incl (100)
    f.write(reinterpret_cast<const char*>(&orig), sizeof(orig));
  }
  EXPECT_EQ(format_error_of(path), "malformed pcap record lengths: " + path);

  write_pcap(one_packet_capture(), path);
  ASSERT_EQ(truncate(path.c_str(), 24 + 16 + 10), 0);
  EXPECT_EQ(format_error_of(path), "truncated pcap packet: " + path);
}

TEST(PayloadFiller, StableAcrossCalls) {
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(payload_filler_byte(123, i), payload_filler_byte(123, i));
  }
  EXPECT_NE(payload_filler_byte(123, 0), payload_filler_byte(124, 0));
}

}  // namespace
}  // namespace choir::trace
