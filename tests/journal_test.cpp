// Write-ahead journal framing and durability: record encode/decode,
// CRC32 protection, torn/corrupted-tail handling (recovery truncates to
// the last valid record instead of failing), and the file-backed
// journal's append/reopen round trip. The format is documented in
// engine/journal.hpp.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "engine/journal.hpp"
#include "json/json.hpp"
#include "util/crc32.hpp"

namespace bifrost::engine {
namespace {

json::Value payload(int i) {
  json::Object object;
  object["id"] = "s-1";
  object["seq"] = i;
  return json::Value(std::move(object));
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "journal_test_" + name + "_" +
         std::to_string(::getpid());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

// ---------------------------------------------------------------------------
// Record type names

TEST(RecordTypes, NamesRoundTrip) {
  const RecordType all[] = {
      RecordType::kSubmit,    RecordType::kStarted,
      RecordType::kStateEntered, RecordType::kCheckExecuted,
      RecordType::kStateCompleted, RecordType::kExceptionTriggered,
      RecordType::kApplyIntent, RecordType::kApplyAck,
      RecordType::kFinished,  RecordType::kAborted,
      RecordType::kSnapshot,  RecordType::kRecovered,
      RecordType::kReconciled,
  };
  for (RecordType type : all) {
    const char* name = record_type_name(type);
    ASSERT_NE(name, nullptr);
    const auto back = record_type_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, type) << name;
  }
  EXPECT_FALSE(record_type_from_name("not_a_record").has_value());
}

// ---------------------------------------------------------------------------
// Framing

TEST(Framing, FrameLayoutIsLengthCrcPayload) {
  const std::string frame = frame_record(RecordType::kStarted, payload(1));
  ASSERT_GE(frame.size(), 8u);
  std::uint32_t length = 0;
  for (int i = 3; i >= 0; --i) {
    length = (length << 8) | static_cast<unsigned char>(frame[i]);
  }
  EXPECT_EQ(length, frame.size() - 8);  // payload bytes after both headers
  const std::string body = frame.substr(8);
  EXPECT_NE(body.find("\"started\""), std::string::npos);
  EXPECT_NE(body.find("\"s-1\""), std::string::npos);
}

// The envelope is written without building a json::Object around a copy
// of the data; the bytes must stay those of that object's dump().
TEST(Framing, PayloadIsTheEnvelopeObjectDump) {
  json::Object nested{
      {"text", "quote \" backslash \\ newline \n tab \t"},
      {"list", json::Array{1, 2.5, -3, true, nullptr, "x"}},
      {"inner", json::Object{{"z", 1}, {"a", json::Object{}}}},
      {"big", static_cast<std::int64_t>(1) << 52},
  };
  const json::Value datas[] = {payload(7), json::Value(nested),
                               json::Value(json::Object{})};
  for (int t = 0; t <= static_cast<int>(RecordType::kRegionAck); ++t) {
    const auto type = static_cast<RecordType>(t);
    for (const json::Value& data : datas) {
      json::Object envelope;
      envelope["type"] = record_type_name(type);
      envelope["data"] = data;
      const std::string expected = json::Value(std::move(envelope)).dump();
      const std::string frame = frame_record(type, data);
      ASSERT_EQ(frame.substr(8), expected) << record_type_name(type);
      std::uint32_t crc = 0;
      for (int i = 7; i >= 4; --i) {
        crc = (crc << 8) | static_cast<unsigned char>(frame[i]);
      }
      EXPECT_EQ(crc, util::crc32(expected));
      const JournalReadResult read = parse_journal_bytes(frame);
      ASSERT_EQ(read.records.size(), 1u);
      EXPECT_EQ(read.records[0].data, data);
    }
  }
}

TEST(Framing, ParseRoundTripsMultipleRecords) {
  std::string bytes;
  for (int i = 0; i < 5; ++i) {
    bytes += frame_record(RecordType::kCheckExecuted, payload(i));
  }
  const JournalReadResult result = parse_journal_bytes(bytes);
  EXPECT_FALSE(result.truncated_tail);
  EXPECT_EQ(result.valid_bytes, bytes.size());
  ASSERT_EQ(result.records.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(result.records[i].type, RecordType::kCheckExecuted);
    EXPECT_EQ(result.records[i].data.dump(), payload(i).dump());
  }
}

TEST(Framing, EmptyBufferIsAnEmptyJournal) {
  const JournalReadResult result = parse_journal_bytes("");
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.valid_bytes, 0u);
  EXPECT_FALSE(result.truncated_tail);
}

// ---------------------------------------------------------------------------
// Corruption: every failure mode truncates to the last valid record

TEST(Corruption, TornHeaderAtTail) {
  std::string bytes = frame_record(RecordType::kSubmit, payload(0));
  const std::uint64_t valid = bytes.size();
  bytes += "\x02\x00";  // half a length field
  const JournalReadResult result = parse_journal_bytes(bytes);
  EXPECT_TRUE(result.truncated_tail);
  EXPECT_EQ(result.valid_bytes, valid);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].type, RecordType::kSubmit);
}

TEST(Corruption, LengthPastEndOfBuffer) {
  std::string bytes = frame_record(RecordType::kSubmit, payload(0));
  const std::uint64_t valid = bytes.size();
  std::string torn = frame_record(RecordType::kStarted, payload(1));
  torn.resize(torn.size() - 3);  // payload shorter than the length field
  bytes += torn;
  const JournalReadResult result = parse_journal_bytes(bytes);
  EXPECT_TRUE(result.truncated_tail);
  EXPECT_EQ(result.valid_bytes, valid);
  EXPECT_EQ(result.records.size(), 1u);
}

TEST(Corruption, CrcMismatchAtTail) {
  std::string bytes = frame_record(RecordType::kSubmit, payload(0));
  const std::uint64_t valid = bytes.size();
  std::string bad = frame_record(RecordType::kStarted, payload(1));
  bad.back() ^= 0x40;  // flip a payload bit; CRC no longer matches
  bytes += bad;
  const JournalReadResult result = parse_journal_bytes(bytes);
  EXPECT_TRUE(result.truncated_tail);
  EXPECT_EQ(result.valid_bytes, valid);
  EXPECT_EQ(result.records.size(), 1u);
  EXPECT_FALSE(result.truncation_reason.empty());
}

TEST(Corruption, MidJournalCorruptionDropsEverythingAfter) {
  std::string first = frame_record(RecordType::kSubmit, payload(0));
  first[10] ^= 0x01;  // corrupt the FIRST record
  std::string bytes = first;
  bytes += frame_record(RecordType::kStarted, payload(1));
  const JournalReadResult result = parse_journal_bytes(bytes);
  EXPECT_TRUE(result.truncated_tail);
  EXPECT_EQ(result.valid_bytes, 0u);
  EXPECT_TRUE(result.records.empty());
}

TEST(Corruption, UnknownRecordTypeStopsTheScan) {
  // Hand-frame a payload whose type name no reader knows (a record
  // appended by a newer engine version): the CRC is correct but the
  // scan must stop there — it cannot interpret the record.
  std::string bytes = frame_record(RecordType::kSubmit, payload(0));
  const std::uint64_t valid = bytes.size();
  const std::string body = R"({"data":{},"type":"from_the_future"})";
  std::string frame;
  const std::uint32_t length = static_cast<std::uint32_t>(body.size());
  const std::uint32_t crc = util::crc32(body);
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>((length >> (8 * i)) & 0xFF));
  }
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
  frame += body;
  const JournalReadResult result = parse_journal_bytes(bytes + frame);
  EXPECT_TRUE(result.truncated_tail);
  EXPECT_EQ(result.valid_bytes, valid);
  EXPECT_EQ(result.records.size(), 1u);
}

// ---------------------------------------------------------------------------
// Fixture file: a journal with a corrupted tail recovers to the last
// valid record (the ISSUE's truncated-journal fixture).

TEST(FixtureFile, CorruptedTailTruncatesToLastValidRecord) {
  const std::string path = temp_path("fixture");
  std::string bytes;
  for (int i = 0; i < 3; ++i) {
    bytes += frame_record(RecordType::kCheckExecuted, payload(i));
  }
  const std::uint64_t valid = bytes.size();
  std::string torn = frame_record(RecordType::kFinished, payload(3));
  torn.resize(torn.size() / 2);  // the crash happened mid-write
  bytes += torn;
  write_file(path, bytes);

  auto read = read_journal_file(path);
  ASSERT_TRUE(read.ok()) << read.error_message();
  EXPECT_TRUE(read.value().truncated_tail);
  EXPECT_EQ(read.value().valid_bytes, valid);
  EXPECT_EQ(read.value().records.size(), 3u);

  // Recovery truncates the tail; a second read sees a clean journal.
  auto cut = truncate_journal_file(path, read.value().valid_bytes);
  ASSERT_TRUE(cut.ok()) << cut.error_message();
  auto again = read_journal_file(path);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value().truncated_tail);
  EXPECT_EQ(again.value().records.size(), 3u);
  EXPECT_EQ(read_file(path).size(), valid);
  std::remove(path.c_str());
}

TEST(FixtureFile, MissingFileIsAnError) {
  EXPECT_FALSE(read_journal_file(temp_path("does_not_exist")).ok());
}

// ---------------------------------------------------------------------------
// MemoryJournal

TEST(MemoryJournal, AppendsAndCounts) {
  MemoryJournal journal;
  EXPECT_EQ(journal.records_written(), 0u);
  ASSERT_TRUE(journal.append(RecordType::kSubmit, payload(0)).ok());
  ASSERT_TRUE(journal.append(RecordType::kStarted, payload(1)).ok());
  EXPECT_EQ(journal.records_written(), 2u);
  ASSERT_EQ(journal.records().size(), 2u);
  EXPECT_EQ(journal.records()[1].type, RecordType::kStarted);
}

// ---------------------------------------------------------------------------
// FileJournal

TEST(FileJournal, AppendSyncReadBack) {
  const std::string path = temp_path("file");
  std::remove(path.c_str());
  {
    auto opened = FileJournal::open(path);
    ASSERT_TRUE(opened.ok()) << opened.error_message();
    auto& journal = *opened.value();
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(journal.append(RecordType::kCheckExecuted, payload(i)).ok());
    }
    EXPECT_EQ(journal.records_written(), 4u);
    ASSERT_TRUE(journal.sync().ok());
  }
  auto read = read_journal_file(path);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read.value().truncated_tail);
  ASSERT_EQ(read.value().records.size(), 4u);
  EXPECT_EQ(read.value().records[2].data.dump(), payload(2).dump());
  std::remove(path.c_str());
}

TEST(FileJournal, ReopenAppendsAfterExistingRecords) {
  const std::string path = temp_path("reopen");
  std::remove(path.c_str());
  {
    auto first = FileJournal::open(path);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE(first.value()->append(RecordType::kSubmit, payload(0)).ok());
  }
  {
    auto second = FileJournal::open(path);
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE(second.value()->append(RecordType::kStarted, payload(1)).ok());
    // records_written counts THIS instance's appends, not history.
    EXPECT_EQ(second.value()->records_written(), 1u);
  }
  auto read = read_journal_file(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.value().records.size(), 2u);
  EXPECT_EQ(read.value().records[0].type, RecordType::kSubmit);
  EXPECT_EQ(read.value().records[1].type, RecordType::kStarted);
  std::remove(path.c_str());
}

TEST(FileJournal, BatchedSyncStillLandsOnDisk) {
  const std::string path = temp_path("batched");
  std::remove(path.c_str());
  FileJournal::Options options;
  options.sync_every = 100;  // no fsync during the appends below
  {
    auto opened = FileJournal::open(path, options);
    ASSERT_TRUE(opened.ok());
    for (int i = 0; i < 7; ++i) {
      ASSERT_TRUE(opened.value()->append(RecordType::kApplyIntent,
                                         payload(i)).ok());
    }
  }  // destructor syncs
  auto read = read_journal_file(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value().records.size(), 7u);
  std::remove(path.c_str());
}

// The reader takes a frame over kMaxRecordBytes for a torn tail and
// drops it with everything after it, so the writer must refuse one.
TEST(FileJournal, RefusesRecordOverTheFrameLimit) {
  const std::string path = temp_path("frame_limit");
  std::remove(path.c_str());
  auto journal = FileJournal::open(path);
  ASSERT_TRUE(journal.ok());
  ASSERT_TRUE(journal.value()->append(RecordType::kStarted, payload(1)).ok());
  const std::string before = read_file(path);

  json::Object huge;
  huge["blob"] = std::string(kMaxRecordBytes, 'x');
  auto refused = journal.value()->append(RecordType::kSnapshot,
                                         json::Value(std::move(huge)));
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.error_message().find("frame limit"), std::string::npos);
  EXPECT_EQ(read_file(path), before);  // nothing written
  EXPECT_EQ(journal.value()->records_written(), 1u);

  ASSERT_TRUE(journal.value()->append(RecordType::kStarted, payload(2)).ok());
  journal.value().reset();
  auto read = read_journal_file(path);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read.value().truncated_tail);
  ASSERT_EQ(read.value().records.size(), 2u);
  EXPECT_EQ(read.value().records[1].data, payload(2));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bifrost::engine
