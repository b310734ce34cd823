#include "stats.h"

#include <algorithm>
#include <cmath>
#include <tuple>

namespace perfbench {

Percentile PercentileOf(std::vector<double> values, double p) {
  Percentile result;
  result.samples = values.size();
  if (values.empty()) {
    return result;
  }
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  index = std::min(index, values.size() - 1);
  result.value = values[index];
  result.beyond = values.size() - index - 1;
  return result;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double upper = values[mid];
  if (values.size() % 2 == 1) {
    return upper;
  }
  double lower = *std::max_element(values.begin(), values.begin() + mid);
  return (lower + upper) / 2.0;
}

CycleTable::CycleTable(size_t cycle, size_t max_reps)
    : cycle_(std::max<size_t>(cycle, 1)), max_reps_(std::max<size_t>(max_reps, 2)) {
  current_.reserve(cycle_);
}

void CycleTable::Add(double value) {
  current_.push_back(static_cast<float>(value));
  ++count_;
  if (current_.size() < cycle_) {
    return;
  }
  uint64_t rep = count_ / cycle_ - 1;
  if (rep % stride_ == 0) {
    reps_.push_back(std::move(current_));
    if (reps_.size() > max_reps_) {
      // Keep the repetitions that are multiples of the doubled stride: the
      // even-numbered ones of those kept.
      std::vector<std::vector<float>> kept;
      for (size_t i = 0; i < reps_.size(); i += 2) {
        kept.push_back(std::move(reps_[i]));
      }
      reps_ = std::move(kept);
      stride_ *= 2;
    }
  }
  current_.clear();
  current_.reserve(cycle_);
}

std::vector<double> CycleTable::Estimates(size_t window) const {
  if (reps_.empty()) {
    return {};
  }
  std::vector<double> best(cycle_);
  for (size_t i = 0; i < cycle_; ++i) {
    best[i] = reps_[0][i];
    for (const std::vector<float>& rep : reps_) {
      best[i] = std::min(best[i], static_cast<double>(rep[i]));
    }
  }
  std::vector<double> estimates(cycle_);
  std::vector<double> corrected(reps_.size());
  std::vector<double> slowdowns;
  for (size_t i = 0; i < cycle_; ++i) {
    size_t lo = i > window ? i - window : 0;
    size_t hi = std::min(cycle_, i + window + 1);
    for (size_t r = 0; r < reps_.size(); ++r) {
      slowdowns.clear();
      for (size_t j = lo; j < hi; ++j) {
        if (j != i && best[j] > 0.0) {
          slowdowns.push_back(reps_[r][j] / best[j]);
        }
      }
      double slowdown = slowdowns.empty() ? 1.0 : Median(slowdowns);
      corrected[r] = reps_[r][i] / slowdown;
    }
    estimates[i] = Median(corrected);
  }
  return estimates;
}

std::vector<SpanNode> BuildSpanTree(std::vector<SpanInput> spans) {
  std::sort(spans.begin(), spans.end(), [](const SpanInput& a, const SpanInput& b) {
    return std::tie(a.thread, a.start_ns, a.depth) < std::tie(b.thread, b.start_ns, b.depth);
  });
  std::vector<SpanNode> tree;
  tree.reserve(spans.size());
  std::vector<int> open;  // Enclosing spans of the current thread, outermost first.
  for (SpanInput& span : spans) {
    if (!tree.empty() && tree.back().span.thread != span.thread) {
      open.clear();
    }
    uint64_t start = span.start_ns;
    while (!open.empty()) {
      const SpanInput& top = tree[static_cast<size_t>(open.back())].span;
      if (top.depth < span.depth && start + span.duration_ns <= top.start_ns + top.duration_ns) {
        break;
      }
      open.pop_back();
    }
    SpanNode node;
    node.span = std::move(span);
    node.self_ns = node.span.duration_ns;
    int index = static_cast<int>(tree.size());
    if (!open.empty()) {
      node.parent = open.back();
      SpanNode& parent = tree[static_cast<size_t>(node.parent)];
      parent.children.push_back(index);
      parent.self_ns -= std::min(parent.self_ns, node.span.duration_ns);
    }
    tree.push_back(std::move(node));
    open.push_back(index);
  }
  return tree;
}

uint64_t FamilySelfNs(const std::vector<SpanNode>& tree, int index, std::string_view family) {
  const SpanNode& node = tree[static_cast<size_t>(index)];
  uint64_t total = node.self_ns;
  for (int child : node.children) {
    if (tree[static_cast<size_t>(child)].span.name.starts_with(family)) {
      total += FamilySelfNs(tree, child, family);
    }
  }
  return total;
}

std::map<std::string, int> CountTags(std::string_view text, char open, char close,
                                     bool* malformed) {
  std::map<std::string, int> counts;
  std::vector<std::string> stack;
  bool bad = false;
  for (char ch : text) {
    if (ch == open) {
      stack.emplace_back();
    } else if (ch == close) {
      if (stack.empty()) {
        bad = true;
        continue;
      }
      ++counts[stack.back()];
      stack.pop_back();
    } else if (!stack.empty()) {
      stack.back().push_back(ch);
    }
  }
  if (malformed != nullptr) {
    *malformed = bad || !stack.empty();
  }
  return counts;
}

TagCensus CensusOf(const std::map<std::string, int>& counts,
                   const std::vector<std::string>& submitted) {
  TagCensus census;
  census.submitted = submitted.size();
  for (const std::string& id : submitted) {
    auto it = counts.find(id);
    int n = it == counts.end() ? 0 : it->second;
    if (n == 0) {
      ++census.lost;
    } else if (n > 1) {
      ++census.duplicated;
    }
  }
  return census;
}

}  // namespace perfbench
