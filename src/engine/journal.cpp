#include "engine/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/crc32.hpp"

namespace bifrost::engine {
namespace {

using util::Result;

constexpr std::size_t kFrameHeader = 8;  // u32 length + u32 crc32

void put_u32_le(char* out, std::uint32_t v) {
  out[0] = static_cast<char>(v & 0xFFu);
  out[1] = static_cast<char>((v >> 8) & 0xFFu);
  out[2] = static_cast<char>((v >> 16) & 0xFFu);
  out[3] = static_cast<char>((v >> 24) & 0xFFu);
}

std::uint32_t get_u32_le(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

std::string errno_message(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

const char* record_type_name(RecordType type) {
  switch (type) {
    case RecordType::kSubmit:
      return "submit";
    case RecordType::kStarted:
      return "started";
    case RecordType::kStateEntered:
      return "state_entered";
    case RecordType::kCheckExecuted:
      return "check_executed";
    case RecordType::kStateCompleted:
      return "state_completed";
    case RecordType::kExceptionTriggered:
      return "exception_triggered";
    case RecordType::kApplyIntent:
      return "apply_intent";
    case RecordType::kApplyAck:
      return "apply_ack";
    case RecordType::kFinished:
      return "finished";
    case RecordType::kAborted:
      return "aborted";
    case RecordType::kSnapshot:
      return "snapshot";
    case RecordType::kRecovered:
      return "recovered";
    case RecordType::kReconciled:
      return "reconciled";
    case RecordType::kRegionAck:
      return "region_ack";
  }
  return "unknown";
}

std::optional<RecordType> record_type_from_name(std::string_view name) {
  static constexpr RecordType kAll[] = {
      RecordType::kSubmit,        RecordType::kStarted,
      RecordType::kStateEntered,  RecordType::kCheckExecuted,
      RecordType::kStateCompleted, RecordType::kExceptionTriggered,
      RecordType::kApplyIntent,   RecordType::kApplyAck,
      RecordType::kFinished,      RecordType::kAborted,
      RecordType::kSnapshot,      RecordType::kRecovered,
      RecordType::kReconciled,    RecordType::kRegionAck,
  };
  for (RecordType t : kAll) {
    if (name == record_type_name(t)) return t;
  }
  return std::nullopt;
}

// --------------------------------------------------------------------------
// Framing

std::string frame_record(RecordType type, const json::Value& data) {
  // Written around data.dump() without copying `data` into an envelope
  // object. The bytes must equal the dump() of {"data":...,"type":...},
  // whose keys sort "data" first (journal_test checks this).
  const std::string body = data.dump();
  const char* const name = record_type_name(type);
  std::string frame;
  frame.reserve(kFrameHeader + body.size() + std::strlen(name) + 20);
  frame.append(kFrameHeader, '\0');
  frame += "{\"data\":";
  frame += body;
  frame += ",\"type\":\"";
  frame += name;
  frame += "\"}";
  const std::string_view payload =
      std::string_view(frame).substr(kFrameHeader);
  put_u32_le(frame.data(), static_cast<std::uint32_t>(payload.size()));
  put_u32_le(frame.data() + 4, util::crc32(payload));
  return frame;
}

JournalReadResult parse_journal_bytes(std::string_view bytes) {
  JournalReadResult result;
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    if (bytes.size() - offset < kFrameHeader) {
      result.truncated_tail = true;
      result.truncation_reason = "short frame header at offset " +
                                 std::to_string(offset);
      break;
    }
    const std::uint32_t length = get_u32_le(bytes.data() + offset);
    const std::uint32_t crc = get_u32_le(bytes.data() + offset + 4);
    if (length > kMaxRecordBytes) {
      result.truncated_tail = true;
      result.truncation_reason = "implausible record length " +
                                 std::to_string(length) + " at offset " +
                                 std::to_string(offset);
      break;
    }
    if (bytes.size() - offset - kFrameHeader < length) {
      result.truncated_tail = true;
      result.truncation_reason = "record body past end of file at offset " +
                                 std::to_string(offset);
      break;
    }
    const std::string_view payload =
        bytes.substr(offset + kFrameHeader, length);
    if (util::crc32(payload) != crc) {
      result.truncated_tail = true;
      result.truncation_reason =
          "CRC mismatch at offset " + std::to_string(offset);
      break;
    }
    auto parsed = json::parse(payload);
    if (!parsed.ok()) {
      result.truncated_tail = true;
      result.truncation_reason = "unparseable payload at offset " +
                                 std::to_string(offset) + ": " +
                                 parsed.error_message();
      break;
    }
    const std::string type_name = parsed.value().get_string("type");
    const auto type = record_type_from_name(type_name);
    if (!type.has_value()) {
      result.truncated_tail = true;
      result.truncation_reason = "unknown record type '" + type_name +
                                 "' at offset " + std::to_string(offset);
      break;
    }
    JournalRecord record;
    record.type = *type;
    if (const json::Value* data = parsed.value().find("data")) {
      record.data = *data;
    }
    result.records.push_back(std::move(record));
    offset += kFrameHeader + length;
    result.valid_bytes = offset;
  }
  return result;
}

// --------------------------------------------------------------------------
// MemoryJournal

Result<void> MemoryJournal::append(RecordType type, json::Value data) {
  records_.push_back(JournalRecord{type, std::move(data)});
  return {};
}

// --------------------------------------------------------------------------
// FileJournal

FileJournal::FileJournal(int fd, std::string path, Options options)
    : fd_(fd), path_(std::move(path)), options_(options) {}

Result<std::unique_ptr<FileJournal>> FileJournal::open(const std::string& path,
                                                       Options options) {
  if (options.sync_every == 0) options.sync_every = 1;
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Result<std::unique_ptr<FileJournal>>::error(
        errno_message("open journal '" + path + "'"));
  }
  return Result<std::unique_ptr<FileJournal>>(std::unique_ptr<FileJournal>(
      new FileJournal(fd, path, options)));
}

FileJournal::~FileJournal() {
  if (fd_ >= 0) {
    if (unsynced_ > 0) ::fsync(fd_);
    ::close(fd_);
  }
}

Result<void> FileJournal::append(RecordType type, json::Value data) {
  const std::string frame = frame_record(type, data);
  if (frame.size() - kFrameHeader > kMaxRecordBytes) {
    // The reader would take this frame for a torn tail and drop it with
    // everything after it; refuse it instead and write nothing.
    return Result<void>::error(
        std::string(record_type_name(type)) + " record of " +
        std::to_string(frame.size() - kFrameHeader) +
        " bytes exceeds the journal frame limit of " +
        std::to_string(kMaxRecordBytes) + " bytes");
  }
  std::size_t done = 0;
  while (done < frame.size()) {
    const ssize_t n = ::write(fd_, frame.data() + done, frame.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Result<void>::error(errno_message("write journal"));
    }
    done += static_cast<std::size_t>(n);
  }
  ++written_;
  ++unsynced_;
  if (unsynced_ >= options_.sync_every) return sync();
  return {};
}

Result<void> FileJournal::sync() {
  if (unsynced_ == 0) return {};
  if (::fsync(fd_) != 0) {
    return Result<void>::error(errno_message("fsync journal"));
  }
  unsynced_ = 0;
  return {};
}

// --------------------------------------------------------------------------
// Reader / repair

Result<JournalReadResult> read_journal_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Result<JournalReadResult>::error("cannot read journal '" + path +
                                            "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string bytes = buf.str();
  return Result<JournalReadResult>(parse_journal_bytes(bytes));
}

Result<void> truncate_journal_file(const std::string& path,
                                   std::uint64_t valid_bytes) {
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    return Result<void>::error(
        errno_message("truncate journal '" + path + "'"));
  }
  return {};
}

}  // namespace bifrost::engine
