// The paper's stability verdict (§4.1), defined once for every caller:
// core/instability and core/confidence, the flip ledger, the telemetry
// flip hook and the streaming aggregator. A stimulus seen by fewer than
// two environments is skipped; it is unstable when at least one
// environment classifies it correctly AND at least one incorrectly;
// all-wrong stimuli are not unstable but stay in the denominator.
#pragma once

namespace edgestab::obs {

enum class ItemVerdict { kSkipped, kUnstable, kAllCorrect, kAllIncorrect };

/// The verdict on one stimulus seen `correct` times right and
/// `incorrect` times wrong.
constexpr ItemVerdict verdict(long long correct, long long incorrect) {
  if (correct + incorrect < 2) return ItemVerdict::kSkipped;
  if (correct > 0 && incorrect > 0) return ItemVerdict::kUnstable;
  return incorrect == 0 ? ItemVerdict::kAllCorrect
                        : ItemVerdict::kAllIncorrect;
}

/// An observation wrong while `item_correct` other observers of its
/// stimulus are right: with any of them, the incorrect side of a flip.
constexpr bool flipped(bool correct, long long item_correct) {
  return !correct && item_correct > 0;
}

/// One stimulus's observation counts.
struct ItemCounts {
  long long correct = 0;
  long long incorrect = 0;

  void add(bool is_correct) { ++(is_correct ? correct : incorrect); }
  ItemVerdict verdict() const { return obs::verdict(correct, incorrect); }
};

/// Verdicts over a set of stimuli; skipped ones count nowhere.
/// instability = unstable_items / total_items.
struct VerdictTally {
  long long total_items = 0;
  long long unstable_items = 0;
  long long all_correct_items = 0;
  long long all_incorrect_items = 0;

  void add(ItemVerdict v) {
    if (v == ItemVerdict::kSkipped) return;
    ++total_items;
    ++(v == ItemVerdict::kUnstable     ? unstable_items
       : v == ItemVerdict::kAllCorrect ? all_correct_items
                                       : all_incorrect_items);
  }
  double instability() const { return fraction(unstable_items); }
  double all_correct_fraction() const { return fraction(all_correct_items); }
  bool operator==(const VerdictTally&) const = default;

 private:
  double fraction(long long n) const {
    return total_items > 0 ? static_cast<double>(n) / total_items : 0.0;
  }
};

}  // namespace edgestab::obs
