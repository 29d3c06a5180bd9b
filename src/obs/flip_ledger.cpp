#include "obs/flip_ledger.h"

#include <algorithm>

#include "util/hashing.h"

namespace edgestab::obs {

void FlipLedger::add_group(const std::string& group,
                           std::span<const FlipOutcome> outcomes) {
  auto& raw = raw_[group];
  raw.insert(raw.end(), outcomes.begin(), outcomes.end());
}

void FlipLedger::merge(const FlipLedger& other) {
  for (const auto& [group, outcomes] : other.raw_) {
    auto& raw = raw_[group];
    raw.insert(raw.end(), outcomes.begin(), outcomes.end());
    // Canonical order: summaries walk outcomes in insertion order when
    // pairing correct/incorrect envs, so sort to make the merged result
    // shard-order independent.
    std::stable_sort(raw.begin(), raw.end(),
                     [](const FlipOutcome& a, const FlipOutcome& b) {
                       return a.item != b.item ? a.item < b.item
                                               : a.env < b.env;
                     });
  }
}

LedgerGroupSummary FlipLedger::build_summary(const std::string& group) const {
  LedgerGroupSummary s;
  s.group = group;
  auto it = raw_.find(group);
  if (it == raw_.end()) return s;

  struct ItemTally {
    std::vector<const FlipOutcome*> correct;
    std::vector<const FlipOutcome*> incorrect;
    int class_id = -1;
  };
  std::map<int, ItemTally> items;
  for (const FlipOutcome& o : it->second) {
    ItemTally& t = items[o.item];
    (o.correct ? t.correct : t.incorrect).push_back(&o);
    if (t.class_id < 0) t.class_id = o.class_id;
  }

  for (const auto& [item, t] : items) {
    const ItemVerdict v = verdict(static_cast<long long>(t.correct.size()),
                              static_cast<long long>(t.incorrect.size()));
    s.verdicts.add(v);
    if (v != ItemVerdict::kUnstable) continue;
    ++s.unstable_by_class[t.class_id];
    for (const FlipOutcome* c : t.correct)
      for (const FlipOutcome* w : t.incorrect) {
        ++s.flips_by_class[t.class_id];
        ++s.flips_by_pair[{c->env, w->env}];
        if (s.entries.size() < kMaxEntriesPerGroup) {
          s.entries.push_back({item, t.class_id, c->env, w->env,
                               c->predicted, w->predicted});
        } else {
          ++s.dropped_entries;
        }
      }
  }
  return s;
}

std::vector<LedgerGroupSummary> FlipLedger::summaries() const {
  std::vector<LedgerGroupSummary> out;
  out.reserve(raw_.size());
  for (const auto& [group, _] : raw_) out.push_back(build_summary(group));
  return out;
}

std::optional<LedgerGroupSummary> FlipLedger::find_group(
    const std::string& group) const {
  if (raw_.find(group) == raw_.end()) return std::nullopt;
  return build_summary(group);
}

std::uint64_t FlipLedger::digest() const {
  Fingerprint fp;
  for (const auto& s : summaries()) {
    fp.add(s.group)
        .add(s.verdicts.total_items)
        .add(s.verdicts.unstable_items)
        .add(s.verdicts.all_correct_items)
        .add(s.verdicts.all_incorrect_items);
    for (const auto& [cls, n] : s.flips_by_class) fp.add(cls).add(n);
    for (const auto& [pair, n] : s.flips_by_pair)
      fp.add(pair.first).add(pair.second).add(n);
  }
  return fp.value();
}

}  // namespace edgestab::obs
