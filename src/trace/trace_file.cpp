#include "trace/trace_file.hpp"

#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "common/expect.hpp"
#include "trace/tag.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define CHOIR_TRACE_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace choir::trace {

namespace {
constexpr char kMagic[8] = {'C', 'H', 'O', 'I', 'R', 'T', 'R', 'C'};

template <typename T>
T get(std::ifstream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(value));
  return value;
}

/// memcpy-based field read: the 87-byte record stride leaves every
/// multi-byte field unaligned somewhere, and a cast-and-deref would be
/// UB there; memcpy compiles to the same single load on x86-64/ARM64.
template <typename T>
T get_at(const std::uint8_t* p) {
  T value{};
  std::memcpy(&value, p, sizeof(value));
  return value;
}

/// Store counterpart of get_at. Host little-endian assumed for this
/// research codebase (x86-64/ARM64).
template <typename T>
void put_at(std::uint8_t* p, T value) {
  std::memcpy(p, &value, sizeof(value));
}

/// Frames above this are not representable on any link the simulator
/// models; a larger wire_len in a file is corruption, not jumbo frames.
constexpr std::uint32_t kMaxPlausibleWireLen = 1u << 24;

// Field offsets within one on-disk record.
constexpr std::size_t kOffTimestamp = 0;
constexpr std::size_t kOffWireLen = 8;
constexpr std::size_t kOffHeaderLen = 12;
constexpr std::size_t kOffHasTrailer = 14;
constexpr std::size_t kOffHeader = 15;
constexpr std::size_t kOffTrailer = kOffHeader + pktio::kMaxHeaderBytes;
constexpr std::size_t kOffPayloadToken = kOffTrailer + pktio::kTrailerBytes;
static_assert(kOffPayloadToken + 8 == kTraceRecordBytes);
}  // namespace

void write_trace(const Capture& capture, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CHOIR_EXPECT(out.good(), "cannot open trace file for writing: " + path);
  std::uint8_t header[kTraceHeaderBytes];
  std::memcpy(header, kMagic, sizeof(kMagic));
  put_at<std::uint32_t>(header + 8, kTraceVersion);
  put_at<std::uint64_t>(header + 12, capture.size());
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  // Records are encoded at their on-disk offsets into one reused block
  // and written a block at a time: one stream call per kBlockRecords
  // records instead of seven per record.
  constexpr std::size_t kBlockRecords = 1024;
  std::vector<std::uint8_t> block(kBlockRecords * kTraceRecordBytes);
  const auto flush = [&](std::size_t records) {
    out.write(reinterpret_cast<const char*>(block.data()),
              static_cast<std::streamsize>(records * kTraceRecordBytes));
  };
  std::size_t filled = 0;
  for (const CaptureRecord& r : capture.records()) {
    std::uint8_t* p = block.data() + filled * kTraceRecordBytes;
    put_at<std::int64_t>(p + kOffTimestamp, r.timestamp);
    put_at<std::uint32_t>(p + kOffWireLen, r.wire_len);
    put_at<std::uint16_t>(p + kOffHeaderLen, r.header_len);
    put_at<std::uint8_t>(p + kOffHasTrailer, r.has_trailer ? 1 : 0);
    std::memcpy(p + kOffHeader, r.header.data(), r.header.size());
    std::memcpy(p + kOffTrailer, r.trailer.data(), r.trailer.size());
    put_at<std::uint64_t>(p + kOffPayloadToken, r.payload_token);
    if (++filled == kBlockRecords) {
      flush(filled);
      filled = 0;
    }
  }
  flush(filled);
  CHOIR_EXPECT(out.good(), "write failed for trace file: " + path);
}

Capture read_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CHOIR_CHECK_FORMAT(in.good(), "cannot open trace file: " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  CHOIR_CHECK_FORMAT(in.good() && std::memcmp(magic, kMagic, 8) == 0,
                     "bad trace magic: " + path);
  const auto version = get<std::uint32_t>(in);
  CHOIR_CHECK_FORMAT(in.good(), "truncated trace header: " + path);
  CHOIR_CHECK_FORMAT(version == kTraceVersion,
                     "unsupported trace version " + std::to_string(version) +
                         ": " + path);
  const auto count = get<std::uint64_t>(in);
  CHOIR_CHECK_FORMAT(in.good(), "truncated trace header: " + path);
  // Validate the declared count against the actual file size before
  // trusting it for an allocation — a corrupted header must not drive an
  // unbounded reserve.
  const auto header_end = in.tellg();
  in.seekg(0, std::ios::end);
  const auto file_end = in.tellg();
  in.seekg(header_end);
  CHOIR_CHECK_FORMAT(
      count <= static_cast<std::uint64_t>(file_end - header_end) /
                   kTraceRecordBytes,
      "trace record count exceeds file size: " + path);

  Capture capture(path);
  capture.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    CaptureRecord r;
    r.timestamp = get<std::int64_t>(in);
    r.wire_len = get<std::uint32_t>(in);
    r.header_len = get<std::uint16_t>(in);
    r.has_trailer = get<std::uint8_t>(in) != 0;
    // The header/trailer arrays are fixed-size, so reads below cannot
    // overrun; the declared lengths still have to be sane before any
    // consumer indexes with them.
    CHOIR_CHECK_FORMAT(r.header_len <= pktio::kMaxHeaderBytes,
                       "trace record " + std::to_string(i) +
                           " header_len exceeds maximum: " + path);
    CHOIR_CHECK_FORMAT(r.wire_len <= kMaxPlausibleWireLen &&
                           r.wire_len >= r.header_len,
                       "trace record " + std::to_string(i) +
                           " has implausible wire_len: " + path);
    in.read(reinterpret_cast<char*>(r.header.data()),
            static_cast<std::streamsize>(r.header.size()));
    in.read(reinterpret_cast<char*>(r.trailer.data()),
            static_cast<std::streamsize>(r.trailer.size()));
    r.payload_token = get<std::uint64_t>(in);
    CHOIR_CHECK_FORMAT(in.good(), "truncated trace file: " + path);
    capture.append(r);
  }
  return capture;
}

// ---- MappedCapture -----------------------------------------------------

MappedCapture::MappedCapture(const std::string& path) : path_(path) {
  load(path);
}

void MappedCapture::load(const std::string& path) {
#if CHOIR_TRACE_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  CHOIR_CHECK_FORMAT(fd >= 0, "cannot open trace file: " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    throw FormatError("cannot open trace file: " + path);
  }
  const auto file_len = static_cast<std::size_t>(st.st_size);
  void* map = file_len < kTraceHeaderBytes
                  ? MAP_FAILED
                  : ::mmap(nullptr, file_len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    // Mapping itself failed (special filesystem, resource limit):
    // degrade to copy semantics, not to an error. A file shorter than
    // its header comes here too, so read_trace names the first missing
    // or bad header field and both loaders report the same fault.
    fallback_ = read_trace(path);
    count_ = fallback_.size();
    return;
  }
  map_ = map;
  map_len_ = file_len;
  try {
    const auto* bytes = static_cast<const std::uint8_t*>(map_);
    CHOIR_CHECK_FORMAT(std::memcmp(bytes, kMagic, 8) == 0,
                       "bad trace magic: " + path);
    const auto version = get_at<std::uint32_t>(bytes + 8);
    CHOIR_CHECK_FORMAT(version == kTraceVersion,
                       "unsupported trace version " + std::to_string(version) +
                           ": " + path);
    count_ = get_at<std::uint64_t>(bytes + 12);
    CHOIR_CHECK_FORMAT(
        count_ <= (map_len_ - kTraceHeaderBytes) / kTraceRecordBytes,
        "trace record count exceeds file size: " + path);
    // Validate every record's sanity fields up front (one pass over two
    // fields per record) so the random-access accessors can stay
    // check-free on the hot path.
    for (std::uint64_t i = 0; i < count_; ++i) {
      const std::uint8_t* r = record_ptr(i);
      const auto header_len = get_at<std::uint16_t>(r + kOffHeaderLen);
      const auto wire_len = get_at<std::uint32_t>(r + kOffWireLen);
      CHOIR_CHECK_FORMAT(header_len <= pktio::kMaxHeaderBytes,
                         "trace record " + std::to_string(i) +
                             " header_len exceeds maximum: " + path);
      CHOIR_CHECK_FORMAT(
          wire_len <= kMaxPlausibleWireLen && wire_len >= header_len,
          "trace record " + std::to_string(i) +
              " has implausible wire_len: " + path);
    }
  } catch (...) {
    unmap();
    throw;
  }
#else
  fallback_ = read_trace(path);
  count_ = fallback_.size();
#endif
}

void MappedCapture::unmap() noexcept {
#if CHOIR_TRACE_HAVE_MMAP
  if (map_ != nullptr) ::munmap(map_, map_len_);
#endif
  map_ = nullptr;
  map_len_ = 0;
}

MappedCapture::~MappedCapture() { unmap(); }

MappedCapture::MappedCapture(MappedCapture&& other) noexcept
    : path_(std::move(other.path_)),
      map_(other.map_),
      map_len_(other.map_len_),
      count_(other.count_),
      fallback_(std::move(other.fallback_)) {
  other.map_ = nullptr;
  other.map_len_ = 0;
  other.count_ = 0;
}

MappedCapture& MappedCapture::operator=(MappedCapture&& other) noexcept {
  if (this != &other) {
    unmap();
    path_ = std::move(other.path_);
    map_ = other.map_;
    map_len_ = other.map_len_;
    count_ = other.count_;
    fallback_ = std::move(other.fallback_);
    other.map_ = nullptr;
    other.map_len_ = 0;
    other.count_ = 0;
  }
  return *this;
}

const std::uint8_t* MappedCapture::record_ptr(std::size_t i) const {
  return static_cast<const std::uint8_t*>(map_) + kTraceHeaderBytes +
         i * kTraceRecordBytes;
}

Ns MappedCapture::timestamp(std::size_t i) const {
  if (map_ == nullptr) return fallback_[i].timestamp;
  return get_at<std::int64_t>(record_ptr(i) + kOffTimestamp);
}

core::PacketId MappedCapture::raw_packet_id(std::size_t i) const {
  if (map_ == nullptr) return fallback_[i].packet_id();
  const std::uint8_t* r = record_ptr(i);
  if (get_at<std::uint8_t>(r + kOffHasTrailer) != 0) {
    std::array<std::uint8_t, pktio::kTrailerBytes> trailer;
    std::memcpy(trailer.data(), r + kOffTrailer, trailer.size());
    if (const auto tag = decode_tag(trailer)) return packet_id_of(*tag);
  }
  core::PacketId id;
  id.hi = 0x7261772d74616773ULL;  // untagged: fall back to payload
  id.lo = get_at<std::uint64_t>(r + kOffPayloadToken);
  return id;
}

CaptureRecord MappedCapture::record(std::size_t i) const {
  if (map_ == nullptr) return fallback_[i];
  const std::uint8_t* p = record_ptr(i);
  CaptureRecord r;
  r.timestamp = get_at<std::int64_t>(p + kOffTimestamp);
  r.wire_len = get_at<std::uint32_t>(p + kOffWireLen);
  r.header_len = get_at<std::uint16_t>(p + kOffHeaderLen);
  r.has_trailer = get_at<std::uint8_t>(p + kOffHasTrailer) != 0;
  std::memcpy(r.header.data(), p + kOffHeader, r.header.size());
  std::memcpy(r.trailer.data(), p + kOffTrailer, r.trailer.size());
  r.payload_token = get_at<std::uint64_t>(p + kOffPayloadToken);
  return r;
}

core::Trial MappedCapture::to_trial() const {
  if (map_ == nullptr) return fallback_.to_trial();
  core::Trial trial;
  trial.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    trial.push_back(core::TrialPacket{raw_packet_id(i), timestamp(i)});
  }
  trial.make_occurrences_unique();
  return trial;
}

Capture MappedCapture::materialize() const {
  if (map_ == nullptr) return fallback_;
  Capture capture(path_);
  capture.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) capture.append(record(i));
  return capture;
}

}  // namespace choir::trace
