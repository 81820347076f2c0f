#include "tracer.hpp"

#include <algorithm>
#include <climits>
#include <fstream>

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->open(name);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(id_);
}

int64_t Tracer::ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

void Tracer::add(const char* name, Clock::time_point start,
                 Clock::time_point end) {
  spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), request_,
                    ns(start), ns(end)});
}

int64_t Tracer::open(const char* name) {
  spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), request_,
                    ns(Clock::now()), 0});
  const auto id = static_cast<int64_t>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int64_t id) {
  spans_[static_cast<size_t>(id)].end_ns = ns(Clock::now());
  stack_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  // Direct children's intervals per parent, then the length of their union.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0)
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = INT64_MIN;
    for (const auto& [start, end] : kids) {
      const int64_t from = std::max(start, reach);
      if (end > from) covered += end - from;
      reach = std::max(reach, end);
    }
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    const auto dur = static_cast<double>(s.end_ns - s.start_ns);
    t.count += 1;
    t.total_ms += dur * 1e-6;
    t.self_ms += (dur - static_cast<double>(covered)) * 1e-6;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
}

}  // namespace perfbench
