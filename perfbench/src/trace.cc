#include "trace.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "common/json.h"

namespace perfbench {

std::int64_t SpanRecorder::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::Begin(std::string name, std::int64_t request) {
  Span s;
  s.name = std::move(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  s.start_ns = Now();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span ended out of order: " + spans_[id].name);
  }
  spans_[static_cast<std::size_t>(id)].end_ns = Now();
  open_.pop_back();
}

void SpanRecorder::WriteJson(const std::string& path) const {
  coc::Json arr = coc::Json::Array();
  for (const Span& s : spans_) {
    coc::Json j = coc::Json::Object();
    j.Set("name", s.name);
    j.Set("start_ns", s.start_ns);
    j.Set("end_ns", s.end_ns);
    j.Set("parent", s.parent);
    j.Set("request", s.request);
    arr.Push(std::move(j));
  }
  coc::Json doc = coc::Json::Object();
  doc.Set("spans", std::move(arr));
  std::ofstream out(path);
  out << doc.Dump() << '\n';
  if (!out) throw std::runtime_error("cannot write span file " + path);
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    const std::int64_t lo = spans[i].start_ns, hi = spans[i].end_ns;
    std::int64_t covered = 0;
    std::int64_t run_start = 0, run_end = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = SelfTimes(spans);
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& t = totals[spans[i].name];
    ++t.count;
    t.total_ns += spans[i].end_ns - spans[i].start_ns;
    t.self_ns += self[i];
  }
  return totals;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace perfbench
