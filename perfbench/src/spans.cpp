#include "spans.h"

#include <cstdio>

namespace perfbench {

namespace {
std::int64_t nanos_between(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch).count();
}
std::int64_t nanos_since(Clock::time_point epoch) { return nanos_between(epoch, Clock::now()); }
}  // namespace

std::int64_t SpanLog::open(std::string name, std::int64_t op_id) {
  const std::int64_t parent = open_.empty() ? -1 : open_.back();
  if (op_id == 0 && parent >= 0) op_id = spans_[static_cast<std::size_t>(parent)].op_id;
  spans_.push_back(Span{std::move(name), op_id, parent, nanos_since(epoch_), 0});
  const auto index = static_cast<std::int64_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::close(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = nanos_since(epoch_);
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::int64_t SpanLog::record(std::string name, std::int64_t op_id, Clock::time_point start,
                            Clock::time_point end) {
  if (!enabled_) return -1;
  const std::int64_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{std::move(name), op_id, parent, nanos_between(epoch_, start),
                        nanos_between(epoch_, end)});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

double SpanLog::total_seconds(const std::string& name, std::size_t from) const {
  double total = 0.0;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    if (spans_[i].name == name) total += spans_[i].seconds();
  }
  return total;
}

bool SpanLog::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"op\":%lld,\"index\":%zu,\"parent\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                 s.name.c_str(), static_cast<long long>(s.op_id), i,
                 static_cast<long long>(s.parent), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
