#include "trace/trace_file.hpp"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "common/expect.hpp"
#include "common/rng.hpp"
#include "core/metrics.hpp"
#include "trace/tag.hpp"

// Counting replacement of the global allocation functions, for the
// loader allocation test below. Every test in this binary goes through it.
namespace {
std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace choir::trace {
namespace {

struct TraceFileTest : ::testing::Test {
  std::string path;
  void SetUp() override {
    path = ::testing::TempDir() + "choir_trace_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".trc";
  }
  void TearDown() override { std::remove(path.c_str()); }
};

Capture sample_capture(std::size_t n) {
  Capture cap("sample");
  for (std::size_t i = 0; i < n; ++i) {
    pktio::Frame frame;
    frame.wire_len = 1400;
    frame.header_len = 42;
    frame.header[0] = static_cast<std::uint8_t>(i);
    frame.payload_token = i * 31;
    stamp(frame, Tag{2, 1, i});
    cap.append(CaptureRecord::from_frame(frame, static_cast<Ns>(i) * 280));
  }
  return cap;
}

TEST_F(TraceFileTest, RoundTripPreservesRecords) {
  const Capture original = sample_capture(100);
  write_trace(original, path);
  const Capture loaded = read_trace(path);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].timestamp, original[i].timestamp);
    EXPECT_EQ(loaded[i].wire_len, original[i].wire_len);
    EXPECT_EQ(loaded[i].header_len, original[i].header_len);
    EXPECT_EQ(loaded[i].header, original[i].header);
    EXPECT_EQ(loaded[i].has_trailer, original[i].has_trailer);
    EXPECT_EQ(loaded[i].trailer, original[i].trailer);
    EXPECT_EQ(loaded[i].payload_token, original[i].payload_token);
  }
}

TEST_F(TraceFileTest, EmptyCaptureRoundTrips) {
  write_trace(Capture("empty"), path);
  EXPECT_EQ(read_trace(path).size(), 0u);
}

TEST_F(TraceFileTest, TrialIdenticalAfterRoundTrip) {
  const Capture original = sample_capture(50);
  write_trace(original, path);
  const Capture loaded = read_trace(path);
  const auto r = core::compare_trials(original.to_trial(), loaded.to_trial());
  EXPECT_EQ(r.metrics.kappa, 1.0);
}

TEST_F(TraceFileTest, MissingFileThrows) {
  EXPECT_THROW(read_trace(path + ".does-not-exist"), Error);
}

TEST_F(TraceFileTest, BadMagicRejected) {
  std::ofstream out(path, std::ios::binary);
  out << "NOTATRACE-FILE-AT-ALL";
  out.close();
  EXPECT_THROW(read_trace(path), Error);
}

TEST_F(TraceFileTest, TruncatedFileRejected) {
  write_trace(sample_capture(10), path);
  // Chop the last record in half.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<long>(in.tellg());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::in);
  out.close();
  ASSERT_EQ(truncate(path.c_str(), size - 20), 0);
  EXPECT_THROW(read_trace(path), Error);
}

// --- MappedCapture ------------------------------------------------------

TEST_F(TraceFileTest, MappedMatchesReadTrace) {
  const Capture original = sample_capture(100);
  write_trace(original, path);
  const Capture loaded = read_trace(path);
  const MappedCapture mapped(path);
  EXPECT_TRUE(mapped.zero_copy());
  ASSERT_EQ(mapped.size(), loaded.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(mapped.timestamp(i), loaded[i].timestamp);
    EXPECT_EQ(mapped.raw_packet_id(i).hi, loaded[i].packet_id().hi);
    EXPECT_EQ(mapped.raw_packet_id(i).lo, loaded[i].packet_id().lo);
    const CaptureRecord r = mapped.record(i);
    EXPECT_EQ(r.timestamp, loaded[i].timestamp);
    EXPECT_EQ(r.wire_len, loaded[i].wire_len);
    EXPECT_EQ(r.header_len, loaded[i].header_len);
    EXPECT_EQ(r.header, loaded[i].header);
    EXPECT_EQ(r.has_trailer, loaded[i].has_trailer);
    EXPECT_EQ(r.trailer, loaded[i].trailer);
    EXPECT_EQ(r.payload_token, loaded[i].payload_token);
  }
}

TEST_F(TraceFileTest, MappedToTrialMatchesCapture) {
  write_trace(sample_capture(200), path);
  const core::Trial from_read = read_trace(path).to_trial();
  const core::Trial from_map = MappedCapture(path).to_trial();
  ASSERT_EQ(from_map.size(), from_read.size());
  for (std::size_t i = 0; i < from_read.size(); ++i) {
    EXPECT_EQ(from_map[i].id.hi, from_read[i].id.hi);
    EXPECT_EQ(from_map[i].id.lo, from_read[i].id.lo);
    EXPECT_EQ(from_map[i].time, from_read[i].time);
  }
}

TEST_F(TraceFileTest, MappedMaterializeMatchesReadTrace) {
  write_trace(sample_capture(40), path);
  const Capture loaded = read_trace(path);
  const Capture materialized = MappedCapture(path).materialize();
  ASSERT_EQ(materialized.size(), loaded.size());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(materialized[i].timestamp, loaded[i].timestamp);
    EXPECT_EQ(materialized[i].header, loaded[i].header);
    EXPECT_EQ(materialized[i].trailer, loaded[i].trailer);
    EXPECT_EQ(materialized[i].payload_token, loaded[i].payload_token);
  }
}

TEST_F(TraceFileTest, MappedUntaggedIdFallsBackToPayloadToken) {
  Capture cap("untagged");
  pktio::Frame frame;
  frame.wire_len = 64;
  frame.payload_token = 0xDEADBEEF;
  cap.append(CaptureRecord::from_frame(frame, 5));
  write_trace(cap, path);
  const MappedCapture mapped(path);
  EXPECT_EQ(mapped.raw_packet_id(0).lo, 0xDEADBEEFu);
  EXPECT_EQ(mapped.raw_packet_id(0).hi, cap[0].packet_id().hi);
}

TEST_F(TraceFileTest, MappedEmptyTrace) {
  write_trace(Capture("empty"), path);
  const MappedCapture mapped(path);
  EXPECT_TRUE(mapped.empty());
  EXPECT_EQ(mapped.to_trial().size(), 0u);
}

TEST_F(TraceFileTest, MappedMissingFileThrows) {
  EXPECT_THROW(MappedCapture(path + ".does-not-exist"), FormatError);
}

TEST_F(TraceFileTest, MappedBadMagicRejected) {
  std::ofstream out(path, std::ios::binary);
  out << "NOTATRACE-FILE-AT-ALL";
  out.close();
  EXPECT_THROW(MappedCapture{path}, FormatError);
}

TEST_F(TraceFileTest, MappedBadVersionRejected) {
  write_trace(sample_capture(3), path);
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(8);  // version field follows the 8-byte magic
  const std::uint32_t bad = 999;
  f.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
  f.close();
  EXPECT_THROW(MappedCapture{path}, FormatError);
  EXPECT_THROW(read_trace(path), FormatError);
}

TEST_F(TraceFileTest, MappedTruncatedRejected) {
  write_trace(sample_capture(10), path);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = static_cast<long>(in.tellg());
  in.close();
  ASSERT_EQ(truncate(path.c_str(), size - 20), 0);
  EXPECT_THROW(MappedCapture{path}, FormatError);
}

TEST_F(TraceFileTest, MappedCorruptWireLenRejected) {
  write_trace(sample_capture(5), path);
  // Record 2's wire_len field: header + 2 records + 8-byte offset.
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(kTraceHeaderBytes +
                                      2 * kTraceRecordBytes + 8));
  const std::uint32_t bad = 0xFFFFFFFF;
  f.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
  f.close();
  EXPECT_THROW(MappedCapture{path}, FormatError);
  EXPECT_THROW(read_trace(path), FormatError);
}

// --- write_trace layout -------------------------------------------------

template <typename T>
void append_le(std::string& bytes, T value) {
  bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// The on-disk format spelled out field by field, independent of the
/// writer's block encoding.
std::string reference_encoding(const Capture& capture) {
  std::string bytes = "CHOIRTRC";
  append_le<std::uint32_t>(bytes, kTraceVersion);
  append_le<std::uint64_t>(bytes, capture.size());
  for (const CaptureRecord& r : capture.records()) {
    append_le<std::int64_t>(bytes, r.timestamp);
    append_le<std::uint32_t>(bytes, r.wire_len);
    append_le<std::uint16_t>(bytes, r.header_len);
    append_le<std::uint8_t>(bytes, r.has_trailer ? 1 : 0);
    bytes.append(reinterpret_cast<const char*>(r.header.data()),
                 r.header.size());
    bytes.append(reinterpret_cast<const char*>(r.trailer.data()),
                 r.trailer.size());
    append_le<std::uint64_t>(bytes, r.payload_token);
  }
  return bytes;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

Capture random_capture(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Capture cap("random");
  for (std::size_t i = 0; i < n; ++i) {
    CaptureRecord r;
    r.timestamp = static_cast<Ns>(rng.next_u64());
    r.wire_len = static_cast<std::uint32_t>(rng.next_u64());
    r.header_len = static_cast<std::uint16_t>(rng.next_u64());
    r.has_trailer = rng.chance(0.5);
    for (auto& b : r.header) b = static_cast<std::uint8_t>(rng.next_u64());
    for (auto& b : r.trailer) b = static_cast<std::uint8_t>(rng.next_u64());
    r.payload_token = rng.next_u64();
    cap.append(r);
  }
  return cap;
}

TEST_F(TraceFileTest, WriterBytesMatchFieldByFieldEncoding) {
  // Sizes around the writer's block boundary, including an empty tail
  // block and a partial one.
  for (const std::size_t n : {0u, 1u, 1023u, 1024u, 1025u, 2048u, 2500u}) {
    const Capture cap = random_capture(n, 40 + n);
    write_trace(cap, path);
    const std::string written = slurp(path);
    ASSERT_EQ(written.size(), kTraceHeaderBytes + n * kTraceRecordBytes);
    EXPECT_TRUE(written == reference_encoding(cap)) << "records " << n;
  }
}

// --- Loader parity ------------------------------------------------------

/// Overwrites `value` at byte `offset` of record `i` in the file.
template <typename T>
void poke_record(const std::string& path, std::size_t i, std::size_t offset,
                 T value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(kTraceHeaderBytes +
                                      i * kTraceRecordBytes + offset));
  f.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

template <typename Load>
std::string format_error_of(Load load) {
  try {
    load();
  } catch (const FormatError& e) {
    return e.what();
  }
  ADD_FAILURE() << "loader accepted a corrupt file";
  return "";
}

/// Both loaders reject the file with the same FormatError text.
void expect_same_rejection(const std::string& path,
                           const std::string& expected) {
  const std::string mapped = format_error_of([&] { MappedCapture m(path); });
  const std::string read = format_error_of([&] { read_trace(path); });
  EXPECT_EQ(mapped, read);
  EXPECT_EQ(mapped, expected);
}

TEST_F(TraceFileTest, LoadersAgreeOnHeaderLenFault) {
  write_trace(sample_capture(10), path);
  poke_record<std::uint16_t>(path, 7, 12, 0xFFFF);  // header_len
  expect_same_rejection(
      path, "trace record 7 header_len exceeds maximum: " + path);
}

TEST_F(TraceFileTest, LoadersAgreeOnWireLenFault) {
  write_trace(sample_capture(10), path);
  poke_record<std::uint32_t>(path, 4, 8, 0xFFFFFFFF);  // wire_len too big
  expect_same_rejection(path,
                        "trace record 4 has implausible wire_len: " + path);
  write_trace(sample_capture(10), path);
  poke_record<std::uint32_t>(path, 9, 8, 3);  // wire_len below header_len
  expect_same_rejection(path,
                        "trace record 9 has implausible wire_len: " + path);
}

TEST_F(TraceFileTest, LoadersAgreeOnTruncation) {
  // A file cut inside record 6: both loaders find the declared count
  // exceeds the file before reading any record. This check names no
  // record index; its text is kept as it always was.
  write_trace(sample_capture(10), path);
  ASSERT_EQ(truncate(path.c_str(), static_cast<off_t>(kTraceHeaderBytes +
                                                      6 * kTraceRecordBytes +
                                                      40)),
            0);
  expect_same_rejection(path, "trace record count exceeds file size: " + path);
}

TEST_F(TraceFileTest, LoadersAgreeOnShortHeaders) {
  // Files cut inside the 20-byte file header, with the magic intact and
  // with it corrupted: both loaders name the first field that fails.
  write_trace(sample_capture(1), path);
  const std::string valid = slurp(path);
  std::string bad_magic = valid;
  bad_magic[0] = 'X';
  for (std::size_t n = 0; n < kTraceHeaderBytes; ++n) {
    for (const bool corrupt : {false, true}) {
      {
        const std::string& bytes = corrupt ? bad_magic : valid;
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(n));
      }
      const bool magic_ok = n >= 8 && !corrupt;
      expect_same_rejection(path, (magic_ok ? "truncated trace header: "
                                            : "bad trace magic: ") +
                                      path);
    }
  }
}

TEST_F(TraceFileTest, MappedLoadAllocationsIndependentOfRecordCount) {
  // Validation builds no per-record strings: mapping a 100k-record file
  // allocates exactly as often as mapping a 1k-record one.
  const auto allocations_to_map = [&](std::size_t records) {
    write_trace(sample_capture(records), path);
    const std::uint64_t before = g_allocations;
    {
      const MappedCapture mapped(path);
      EXPECT_EQ(mapped.size(), records);
    }
    return g_allocations - before;
  };
  const std::uint64_t small = allocations_to_map(1000);
  const std::uint64_t large = allocations_to_map(100000);
  EXPECT_EQ(small, large);
}

TEST_F(TraceFileTest, NegativeTimestampsSupported) {
  Capture cap("neg");
  pktio::Frame frame;
  frame.wire_len = 64;
  cap.append(CaptureRecord::from_frame(frame, -12345));
  write_trace(cap, path);
  EXPECT_EQ(read_trace(path)[0].timestamp, -12345);
}

}  // namespace
}  // namespace choir::trace
