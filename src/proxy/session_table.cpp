#include "proxy/session_table.hpp"

namespace bifrost::proxy {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  if (n <= 1) return 1;
  std::size_t power = 1;
  while (power < n) power <<= 1;
  return power;
}

}  // namespace

SessionTable::SessionTable(std::size_t shards, std::size_t max_sessions) {
  const std::size_t count = round_up_pow2(shards);
  shards_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  if (max_sessions == 0) max_sessions = 1;
  shard_capacity_ = (max_sessions + count - 1) / count;
  if (shard_capacity_ == 0) shard_capacity_ = 1;
}

SessionTable::Shard& SessionTable::shard_for(const std::string& session_id) {
  return *shards_[hash_(session_id) & (shards_.size() - 1)];
}

const SessionTable::Shard& SessionTable::shard_for(
    const std::string& session_id) const {
  return *shards_[hash_(session_id) & (shards_.size() - 1)];
}

std::optional<std::string> SessionTable::touch(
    const std::string& session_id) {
  Shard& shard = shard_for(session_id);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.sessions.find(session_id);
  if (it == shard.sessions.end()) return std::nullopt;
  shard.order.splice(shard.order.end(), shard.order, it->second.order);
  return it->second.version;
}

void SessionTable::assign(const std::string& session_id,
                          const std::string& version) {
  Shard& shard = shard_for(session_id);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.sessions.find(session_id);
  if (it != shard.sessions.end()) {
    it->second.version = version;
    shard.order.splice(shard.order.end(), shard.order, it->second.order);
    return;
  }
  insert_locked(shard, session_id, version);
}

std::string SessionTable::assign_if_absent(const std::string& session_id,
                                          const std::string& version) {
  Shard& shard = shard_for(session_id);
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.sessions.find(session_id);
  if (it != shard.sessions.end()) {
    shard.order.splice(shard.order.end(), shard.order, it->second.order);
    return it->second.version;
  }
  insert_locked(shard, session_id, version);
  return version;
}

void SessionTable::insert_locked(Shard& shard, const std::string& session_id,
                                 const std::string& version) {
  if (shard.sessions.size() >= shard_capacity_) {
    shard.sessions.erase(shard.order.front());
    shard.order.pop_front();
  }
  const auto order_it = shard.order.insert(shard.order.end(), session_id);
  shard.sessions.emplace(session_id, Entry{version, order_it});
}

std::size_t SessionTable::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->sessions.size();
  }
  return total;
}

std::pair<std::vector<std::pair<std::string, std::string>>, std::size_t>
SessionTable::snapshot(std::size_t limit) const {
  std::vector<std::pair<std::string, std::string>> mappings;
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->sessions.size();
    for (const std::string& session : shard->order) {
      if (mappings.size() >= limit) break;
      const auto it = shard->sessions.find(session);
      if (it != shard->sessions.end()) {
        mappings.emplace_back(session, it->second.version);
      }
    }
  }
  return {std::move(mappings), total};
}

}  // namespace bifrost::proxy
