// Write-ahead journal for strategy enactment. Every externally visible
// transition of an execution — submit, start, state entry, check
// execution results, proxy apply intents/acks, terminal outcomes — is
// appended as one framed record BEFORE the engine acts on it, so a
// crashed engine can replay the journal and resume exactly where it
// stopped (see engine/recovery.hpp).
//
// On-disk format (little-endian):
//
//   record  := u32 length | u32 crc32 | payload[length]
//   payload := compact JSON {"type": "<name>", "data": {...}}
//
// The CRC covers only the payload bytes. A torn write at the tail (short
// frame, length past EOF, CRC mismatch) marks the journal as truncated:
// the reader returns every record up to the last valid one plus the
// byte offset where validity ends, and recovery truncates the file there
// instead of failing. Corruption that is NOT at the tail is
// indistinguishable from a torn tail by design — everything after the
// first bad frame is dropped.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "json/json.hpp"
#include "util/result.hpp"

namespace bifrost::engine {

/// Every record type the journal knows. Order is append-only: new types
/// go at the end so serialized names stay stable.
enum class RecordType {
  kSubmit,             ///< strategy accepted: id, name, full StrategyDef
                       ///< (the only record that holds the definition)
  kStarted,            ///< execution began running
  kStateEntered,       ///< automaton entered a state
  kCheckExecuted,      ///< one check execution finished (result + aggregates)
  kStateCompleted,     ///< all checks done, weighted outcome computed
  kExceptionTriggered, ///< exception check fired, fallback transition
  kApplyIntent,        ///< about to push routing to a proxy (WAL: pre-call)
  kApplyAck,           ///< proxy apply returned (ok or error)
  kFinished,           ///< terminal state reached (success/rollback);
                       ///< carries the retired `summary` (recovery.hpp)
  kAborted,            ///< execution aborted by operator or rollback
                       ///< failure; carries the retired `summary`
  kSnapshot,           ///< live tracker state; replay starts here
  kRecovered,          ///< marker: engine recovered executions from journal
  kReconciled,         ///< marker: proxy reconciliation pass completed
  kRegionAck,          ///< one region of a fleet push returned (ok or error)
};

/// kFinished or kAborted: the strategy is done and the record carries
/// its retired summary.
[[nodiscard]] inline bool is_terminal(RecordType type) {
  return type == RecordType::kFinished || type == RecordType::kAborted;
}

[[nodiscard]] const char* record_type_name(RecordType type);
[[nodiscard]] std::optional<RecordType> record_type_from_name(
    std::string_view name);

/// Largest record payload the journal holds. The reader treats a longer
/// frame as corruption (its length field most likely contains garbage
/// from a torn write), so FileJournal::append refuses to write one.
inline constexpr std::uint32_t kMaxRecordBytes = 64u * 1024u * 1024u;

struct JournalRecord {
  RecordType type = RecordType::kSubmit;
  json::Value data;  ///< record payload, always a JSON object
};

/// Where a StrategyExecution reports its transitions for journaling.
/// The Engine implements this by appending to its journal (and feeding
/// its replay tracker for snapshot compaction). Called synchronously on
/// the scheduler thread, before the engine acts on the transition.
class DurabilitySink {
 public:
  virtual ~DurabilitySink() = default;
  virtual void record(RecordType type, json::Value data) = 0;
};

/// Append sink. Implementations must make append atomic with respect to
/// the reader's framing: a record is either fully visible or truncated.
class Journal {
 public:
  virtual ~Journal() = default;

  virtual util::Result<void> append(RecordType type, json::Value data) = 0;
  /// Forces buffered records to durable storage.
  virtual util::Result<void> sync() = 0;
  /// Records appended through this instance (not pre-existing ones).
  [[nodiscard]] virtual std::uint64_t records_written() const = 0;
};

/// In-memory journal for tests and the simulated crash harness: the
/// record vector plays the role of the disk and outlives simulated
/// engine incarnations.
class MemoryJournal : public Journal {
 public:
  util::Result<void> append(RecordType type, json::Value data) override;
  util::Result<void> sync() override { return {}; }
  [[nodiscard]] std::uint64_t records_written() const override {
    return records_.size();
  }

  [[nodiscard]] const std::vector<JournalRecord>& records() const {
    return records_;
  }
  void clear() { records_.clear(); }

 private:
  std::vector<JournalRecord> records_;
};

/// Durable file journal with batched fsync: `sync_every = 1` fsyncs
/// after every record (safest, slowest); larger batches trade the last
/// few records for throughput — replay tolerates the missing tail. A
/// record whose payload exceeds kMaxRecordBytes is refused (append
/// returns an error and writes nothing).
class FileJournal : public Journal {
 public:
  struct Options {
    std::size_t sync_every = 1;
  };

  static util::Result<std::unique_ptr<FileJournal>> open(
      const std::string& path, Options options);
  static util::Result<std::unique_ptr<FileJournal>> open(
      const std::string& path) {
    return open(path, Options{});
  }
  ~FileJournal() override;

  FileJournal(const FileJournal&) = delete;
  FileJournal& operator=(const FileJournal&) = delete;

  util::Result<void> append(RecordType type, json::Value data) override;
  util::Result<void> sync() override;
  [[nodiscard]] std::uint64_t records_written() const override {
    return written_;
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  FileJournal(int fd, std::string path, Options options);

  int fd_ = -1;
  std::string path_;
  Options options_;
  std::uint64_t written_ = 0;
  std::size_t unsynced_ = 0;
};

/// Result of scanning a journal: the valid prefix and where it ends.
struct JournalReadResult {
  std::vector<JournalRecord> records;
  std::uint64_t valid_bytes = 0;  ///< offset just past the last valid record
  bool truncated_tail = false;    ///< trailing bytes failed framing/CRC
  std::string truncation_reason;  ///< human-readable cause when truncated
};

/// Encodes one record into its framed on-disk bytes. Exposed so tests
/// can build fixture files (including deliberately corrupted ones).
[[nodiscard]] std::string frame_record(RecordType type,
                                       const json::Value& data);

/// Scans framed records from a buffer, stopping at the first invalid
/// frame. Never fails: corruption only shortens the result.
[[nodiscard]] JournalReadResult parse_journal_bytes(std::string_view bytes);

/// Reads and scans a journal file. Errors only on I/O failure (missing
/// file, unreadable); corruption is reported via the result flags.
util::Result<JournalReadResult> read_journal_file(const std::string& path);

/// Truncates `path` to `valid_bytes`, discarding a corrupted tail.
util::Result<void> truncate_journal_file(const std::string& path,
                                         std::uint64_t valid_bytes);

}  // namespace bifrost::engine
