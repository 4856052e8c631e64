// Sharded sticky-session table: the dynamic routing state's user
// mappings M (paper §3.2) scaled for a multi-core data plane. Session
// ids are hashed onto N independent shards, each with its own mutex,
// hash map, and LRU list, so concurrent requests only contend when they
// land on the same shard. All operations are O(1): lookups refresh the
// entry's LRU position (true recency eviction, not insertion order),
// and eviction pops the least recently used entry of the full shard.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace bifrost::proxy {

class SessionTable {
 public:
  /// `shards` is rounded up to a power of two (min 1). `max_sessions`
  /// is the total capacity, split evenly across shards; each shard
  /// evicts its own least-recently-used entry when it overflows.
  SessionTable(std::size_t shards, std::size_t max_sessions);

  SessionTable(const SessionTable&) = delete;
  SessionTable& operator=(const SessionTable&) = delete;

  /// Assigned version for the session, refreshing its LRU recency;
  /// nullopt when unknown (or evicted).
  [[nodiscard]] std::optional<std::string> touch(
      const std::string& session_id);

  /// Assigns (or re-assigns) the session to a version, refreshing its
  /// LRU recency. Evicts the shard's least recently used entry when the
  /// shard is full.
  void assign(const std::string& session_id, const std::string& version);

  /// First assignment wins: pins the session to `version` unless it is
  /// already pinned, and returns the pin now in force (refreshing its
  /// LRU recency either way). Concurrent first requests of one session
  /// all route by the returned winner.
  [[nodiscard]] std::string assign_if_absent(const std::string& session_id,
                                             const std::string& version);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }

  /// Up to `limit` (session, version) mappings plus the total count
  /// (the /admin/sessions sample; order is per-shard LRU, oldest
  /// first).
  [[nodiscard]] std::pair<std::vector<std::pair<std::string, std::string>>,
                          std::size_t>
  snapshot(std::size_t limit) const;

 private:
  struct Entry {
    std::string version;
    std::list<std::string>::iterator order;  // position in Shard::order
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Entry> sessions;
    std::list<std::string> order;  // front = least recently used
  };

  Shard& shard_for(const std::string& session_id);
  const Shard& shard_for(const std::string& session_id) const;
  /// Inserts a new entry (caller holds the shard mutex and has checked
  /// the session is absent), evicting the LRU entry when full.
  void insert_locked(Shard& shard, const std::string& session_id,
                     const std::string& version);

  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t shard_capacity_;
  std::hash<std::string> hash_;
};

}  // namespace bifrost::proxy
