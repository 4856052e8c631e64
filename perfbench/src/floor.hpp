// The run's own loopback floor and the benchmark's HTTP client.
//
// On a shared host, machine speed drifts by tens of percent in regimes
// lasting seconds to minutes, and every figure in a run moves with it.
// Each workload therefore interleaves short bursts against a Floor with
// its measured work and reports its gated op time relative to the floor
// measured next to it. The Floor is the benchmark's own
// minimal blocking HTTP responder: none of Bifrost's code runs in it,
// so a change to the system under test moves the measured side only.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>

namespace perfbench {

/// Minimal blocking HTTP/1.1 client connection, independent of the
/// code under test so that its cost stays fixed across commits.
class Conn {
 public:
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() { close(); }

  bool open(std::uint16_t port);
  void close();

  struct Reply {
    int status = 0;
    std::string version;  ///< X-Bifrost-Version, empty when absent
  };

  /// Sends `wire` and reads one full response; nullopt on I/O error.
  std::optional<Reply> round_trip(const std::string& wire);

 private:
  bool fill();

  int fd_ = -1;
  std::string buffer_;
};

class Floor {
 public:
  /// Opens one keep-alive connection to a responder thread.
  Floor();
  ~Floor();
  Floor(const Floor&) = delete;
  Floor& operator=(const Floor&) = delete;

  /// Sends `rounds` requests one after another (`wire(i)` builds
  /// request i) and returns the median round trip in microseconds, 0
  /// on I/O error.
  double p50_us(const std::function<std::string(std::uint64_t)>& wire,
                std::uint64_t rounds);

 private:
  Conn conn_;
  int server_fd_ = -1;
  std::thread server_;
};

}  // namespace perfbench
