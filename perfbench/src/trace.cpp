#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

struct Buffer {
  std::mutex mutex;
  std::vector<Span> spans;
};

std::mutex g_buffers_mutex;
std::vector<std::shared_ptr<Buffer>>& all_buffers() {
  static std::vector<std::shared_ptr<Buffer>> buffers;
  return buffers;
}

Buffer& thread_buffer() {
  // The shared_ptr keeps a buffer alive after its thread exits (proxy
  // and server threads are joined before drain()).
  thread_local std::shared_ptr<Buffer> buffer = [] {
    auto created = std::make_shared<Buffer>();
    created->spans.reserve(4096);
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    all_buffers().push_back(created);
    return created;
  }();
  return *buffer;
}

}  // namespace

std::int64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::add(const Span& span) {
  if (!on()) return;
  Buffer& buffer = thread_buffer();
  const std::lock_guard<std::mutex> lock(buffer.mutex);
  buffer.spans.push_back(span);
}

std::vector<Span> Tracer::drain() {
  std::vector<Span> out;
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buffer : all_buffers()) {
    const std::lock_guard<std::mutex> inner(buffer->mutex);
    out.insert(out.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
    buffer->spans.shrink_to_fit();
  }
  return out;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double block_median_mean(const std::vector<double>& values,
                         std::size_t block) {
  std::vector<double> medians;
  for (std::size_t begin = 0; begin < values.size(); begin += block) {
    const std::size_t end = std::min(values.size(), begin + block);
    medians.push_back(percentile(
        {values.begin() + static_cast<std::ptrdiff_t>(begin),
         values.begin() + static_cast<std::ptrdiff_t>(end)},
        50));
  }
  return mean(medians);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<double> durations_us(const std::vector<Span>& spans,
                                 const std::string& name) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (name == span.name) out.push_back(span.us());
  }
  return out;
}

bool write_spans(const std::vector<Span>& spans, const std::string& path,
                 std::size_t limit) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "name\tid\tparent\tgroup\tstart_ns\tend_ns\tvalue\n");
  std::map<std::string, std::size_t> written;
  for (const Span& span : spans) {
    std::size_t& count = written[span.name];
    if (count >= limit) continue;
    ++count;
    std::fprintf(file, "%s\t%llu\t%llu\t%llu\t%lld\t%lld\t%lld\n", span.name,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.group),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.value));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
