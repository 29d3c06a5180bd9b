// Core metric + harness tests: the instability metric's definition and
// edge cases (the paper's §2.2 semantics), grouped variants, confidence
// splitting, precision-recall, top-k correctness, workspace caching, and
// stability-training plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>

#include "core/confidence.h"
#include "core/experiment.h"
#include "core/instability.h"
#include "core/stability_training.h"
#include "core/workspace.h"
#include "obs/flip_ledger.h"
#include "util/rng.h"

namespace edgestab {
namespace {

Observation obs(int item, int env, bool correct, double conf = 0.5,
                int cls = 0, int angle = 0) {
  Observation o;
  o.item = item;
  o.env = env;
  o.correct = correct;
  o.confidence = conf;
  o.class_id = cls;
  o.angle = angle;
  return o;
}

TEST(Instability, DefinitionFromPaper) {
  // Item 0: one correct, one incorrect -> unstable.
  // Item 1: both correct -> stable.
  // Item 2: both incorrect -> NOT unstable (but in the denominator).
  std::vector<Observation> v{obs(0, 0, true),  obs(0, 1, false),
                             obs(1, 0, true),  obs(1, 1, true),
                             obs(2, 0, false), obs(2, 1, false)};
  InstabilityResult r = compute_instability(v);
  EXPECT_EQ(r.total_items, 3);
  EXPECT_EQ(r.unstable_items, 1);
  EXPECT_EQ(r.all_correct_items, 1);
  EXPECT_EQ(r.all_incorrect_items, 1);
  EXPECT_DOUBLE_EQ(r.instability(), 1.0 / 3.0);
}

TEST(Instability, SingleEnvironmentItemsSkipped) {
  std::vector<Observation> v{obs(0, 0, true), obs(1, 0, true),
                             obs(1, 1, false)};
  InstabilityResult r = compute_instability(v);
  EXPECT_EQ(r.total_items, 1);  // item 0 observed once -> skipped
  EXPECT_EQ(r.unstable_items, 1);
}

TEST(Instability, EmptyInput) {
  InstabilityResult r = compute_instability({});
  EXPECT_EQ(r.total_items, 0);
  EXPECT_DOUBLE_EQ(r.instability(), 0.0);
}

TEST(Instability, FiveEnvironmentGroupSemantics) {
  // One disagreeing environment out of five is enough.
  std::vector<Observation> v;
  for (int env = 0; env < 5; ++env) v.push_back(obs(0, env, env != 3));
  InstabilityResult r = compute_instability(v);
  EXPECT_EQ(r.unstable_items, 1);
}

TEST(Instability, PairwiseRestrictsEnvironments) {
  std::vector<Observation> v{
      obs(0, 0, true), obs(0, 1, true), obs(0, 2, false),  // unstable in group
      obs(1, 0, true), obs(1, 1, false), obs(1, 2, true)};
  EXPECT_DOUBLE_EQ(compute_instability(v).instability(), 1.0);
  // Envs {0,1}: item 0 stable, item 1 unstable.
  InstabilityResult r01 = pairwise_instability(v, 0, 1);
  EXPECT_EQ(r01.unstable_items, 1);
  EXPECT_EQ(r01.total_items, 2);
  // Envs {0,2}: item 0 unstable, item 1 stable.
  InstabilityResult r02 = pairwise_instability(v, 0, 2);
  EXPECT_EQ(r02.unstable_items, 1);
}

TEST(Instability, GroupedByClassAndAngle) {
  std::vector<Observation> v{
      obs(0, 0, true, 0.5, /*cls=*/7, /*angle=*/0),
      obs(0, 1, false, 0.5, 7, 0),
      obs(1, 0, true, 0.5, 9, 2),
      obs(1, 1, true, 0.5, 9, 2)};
  auto by_class = instability_by_class(v);
  EXPECT_DOUBLE_EQ(by_class[7].instability(), 1.0);
  EXPECT_DOUBLE_EQ(by_class[9].instability(), 0.0);
  auto by_angle = instability_by_angle(v);
  EXPECT_DOUBLE_EQ(by_angle[0].instability(), 1.0);
  EXPECT_DOUBLE_EQ(by_angle[2].instability(), 0.0);
}

TEST(Instability, EnvironmentAccuracyAndListing) {
  std::vector<Observation> v{obs(0, 0, true), obs(1, 0, false),
                             obs(0, 2, true)};
  EXPECT_DOUBLE_EQ(environment_accuracy(v, 0), 0.5);
  EXPECT_DOUBLE_EQ(environment_accuracy(v, 2), 1.0);
  EXPECT_DOUBLE_EQ(environment_accuracy(v, 9), 0.0);
  EXPECT_EQ(environments(v), (std::vector<int>{0, 2}));
}

// The flip ledger and compute_instability both apply obs/verdict.h;
// randomized observation sets must never make their tallies disagree
// (bench::Run enforces this cross-check at run time, this test hammers
// it over many shapes).
TEST(Instability, FlipLedgerAgreesOnRandomizedObservations) {
  namespace dobs = edgestab::obs;
  Pcg32 rng(991, 7);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<Observation> observations;
    std::vector<dobs::FlipOutcome> outcomes;
    int items = 1 + static_cast<int>(rng.next_u32() % 40);
    for (int item = 0; item < items; ++item) {
      // 1..4 environments: single-observation items exercise the skip
      // rule on both sides.
      int envs = 1 + static_cast<int>(rng.next_u32() % 4);
      int cls = static_cast<int>(rng.next_u32() % 5);
      for (int env = 0; env < envs; ++env) {
        bool correct = rng.uniform() < 0.6;
        observations.push_back(obs(item, env, correct, 0.5, cls));
        dobs::FlipOutcome o;
        o.item = item;
        o.env = env;
        o.correct = correct;
        o.predicted = correct ? cls : cls + 1;
        o.class_id = cls;
        outcomes.push_back(o);
      }
    }
    InstabilityResult expected = compute_instability(observations);
    dobs::FlipLedger ledger;
    ledger.add_group("trial", outcomes);
    auto summary = ledger.find_group("trial");
    ASSERT_TRUE(summary.has_value());
    EXPECT_TRUE(summary->verdicts == expected) << "trial " << trial;
  }
}

// ---- The verdict against an independent count --------------------------------
//
// Every caller of obs/verdict.h is checked against a brute-force count
// written here from the paper's wording alone: an item seen fewer than
// twice is skipped; one seen right at least once and wrong at least once
// is unstable; otherwise it is all-correct or all-incorrect, and stays in
// the denominator either way.

struct BruteCount {
  long long total = 0, unstable = 0, all_correct = 0, all_incorrect = 0;
};

/// The brute-force verdict count over the observations `keep` selects.
template <typename Keep>
BruteCount brute_count(const std::vector<Observation>& v, Keep keep) {
  BruteCount count;
  std::vector<int> items;
  for (const Observation& o : v)
    if (keep(o) && std::find(items.begin(), items.end(), o.item) ==
                       items.end())
      items.push_back(o.item);
  for (int item : items) {
    int seen = 0, right = 0;
    for (const Observation& o : v) {
      if (!keep(o) || o.item != item) continue;
      ++seen;
      if (o.correct) ++right;
    }
    if (seen < 2) continue;
    ++count.total;
    if (right > 0 && right < seen)
      ++count.unstable;
    else if (right == seen)
      ++count.all_correct;
    else
      ++count.all_incorrect;
  }
  return count;
}

/// True when the observations of `item` are sometimes right, sometimes
/// wrong (brute force).
bool brute_unstable(const std::vector<Observation>& v, int item) {
  bool right = false, wrong = false;
  for (const Observation& o : v)
    if (o.item == item) (o.correct ? right : wrong) = true;
  return right && wrong;
}

int brute_seen(const std::vector<Observation>& v, int item) {
  int seen = 0;
  for (const Observation& o : v) seen += o.item == item ? 1 : 0;
  return seen;
}

void expect_tally(const InstabilityResult& got, const BruteCount& want,
                  const std::string& where) {
  EXPECT_EQ(got.total_items, want.total) << where;
  EXPECT_EQ(got.unstable_items, want.unstable) << where;
  EXPECT_EQ(got.all_correct_items, want.all_correct) << where;
  EXPECT_EQ(got.all_incorrect_items, want.all_incorrect) << where;
}

TEST(Verdict, SmallCasesFromThePaper) {
  using edgestab::obs::ItemVerdict;
  EXPECT_EQ(edgestab::obs::verdict(0, 0), ItemVerdict::kSkipped);
  EXPECT_EQ(edgestab::obs::verdict(1, 0), ItemVerdict::kSkipped);
  EXPECT_EQ(edgestab::obs::verdict(0, 1), ItemVerdict::kSkipped);
  EXPECT_EQ(edgestab::obs::verdict(1, 1), ItemVerdict::kUnstable);
  EXPECT_EQ(edgestab::obs::verdict(5, 1), ItemVerdict::kUnstable);
  EXPECT_EQ(edgestab::obs::verdict(2, 0), ItemVerdict::kAllCorrect);
  EXPECT_EQ(edgestab::obs::verdict(0, 2), ItemVerdict::kAllIncorrect);
  EXPECT_FALSE(edgestab::obs::flipped(true, 3));
  EXPECT_FALSE(edgestab::obs::flipped(false, 0));
  EXPECT_TRUE(edgestab::obs::flipped(false, 1));
}

TEST(Verdict, EveryCallerMatchesBruteForceCount) {
  namespace dobs = edgestab::obs;
  Pcg32 rng(2026, 26);
  for (int trial = 0; trial < 40; ++trial) {
    const std::string where = "trial " + std::to_string(trial);
    std::vector<Observation> v;
    const int items = 1 + static_cast<int>(rng.uniform_int(30));
    for (int item = 0; item < items; ++item) {
      // 1..5 observers; per item a right-rate of 0, 1/2 or 1, so
      // single-observer, all-wrong, all-right and unstable items all
      // occur.
      const int observers = 1 + static_cast<int>(rng.uniform_int(5));
      const double p_right = 0.5 * rng.uniform_int(3);
      const int cls = static_cast<int>(rng.uniform_int(4));
      for (int env = 0; env < observers; ++env)
        v.push_back(obs(item, env, rng.uniform() < p_right,
                        rng.uniform(), cls));
    }
    // Observations arrive in any order.
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1],
                v[rng.uniform_int(static_cast<std::uint32_t>(i))]);

    const BruteCount all = brute_count(v, [](const Observation&) {
      return true;
    });
    expect_tally(compute_instability(v), all, where);

    // Per class: every class with a counted item has exactly its row.
    const std::map<int, InstabilityResult> by_class = instability_by_class(v);
    long long class_total = 0;
    for (int cls = 0; cls < 4; ++cls) {
      const BruteCount want = brute_count(
          v, [cls](const Observation& o) { return o.class_id == cls; });
      const auto it = by_class.find(cls);
      if (want.total == 0) {
        EXPECT_EQ(it, by_class.end()) << where << " class " << cls;
        continue;
      }
      ASSERT_NE(it, by_class.end()) << where << " class " << cls;
      expect_tally(it->second, want, where + " class " + std::to_string(cls));
      class_total += it->second.total_items;
    }
    EXPECT_EQ(class_total, all.total) << where;

    // The bootstrap's point estimate is the plain ratio.
    EXPECT_DOUBLE_EQ(bootstrap_instability_ci(v, 0.95, 20).point,
                     all.total > 0 ? static_cast<double>(all.unstable) /
                                         static_cast<double>(all.total)
                                   : 0.0)
        << where;

    // The confidence split sends each counted observation to one side.
    ConfidenceSplit want;
    for (const Observation& o : v) {
      if (brute_seen(v, o.item) < 2) continue;
      if (brute_unstable(v, o.item))
        (o.correct ? want.unstable_correct : want.unstable_incorrect)
            .push_back(o.confidence);
      else
        (o.correct ? want.stable_correct : want.stable_incorrect)
            .push_back(o.confidence);
    }
    const ConfidenceSplit got = split_confidences(v);
    EXPECT_EQ(got.stable_correct, want.stable_correct) << where;
    EXPECT_EQ(got.stable_incorrect, want.stable_incorrect) << where;
    EXPECT_EQ(got.unstable_correct, want.unstable_correct) << where;
    EXPECT_EQ(got.unstable_incorrect, want.unstable_incorrect) << where;

    // The flip ledger, whole and merged from three shards.
    std::vector<dobs::FlipOutcome> outcomes;
    for (const Observation& o : v)
      outcomes.push_back({o.item, o.env, o.correct,
                          o.correct ? o.class_id : o.class_id + 1,
                          o.class_id});
    dobs::FlipLedger whole;
    whole.add_group("g", outcomes);
    std::vector<dobs::FlipOutcome> shards[3];
    for (const dobs::FlipOutcome& o : outcomes)
      shards[rng.uniform_int(3)].push_back(o);
    dobs::FlipLedger merged;
    for (const auto& shard : shards) {
      dobs::FlipLedger part;
      part.add_group("g", shard);
      merged.merge(part);
    }
    for (const dobs::FlipLedger* ledger : {&whole, &merged}) {
      const auto summary = ledger->find_group("g");
      ASSERT_TRUE(summary.has_value()) << where;
      expect_tally(summary->verdicts, all, where + " ledger");
      long long unstable_by_class = 0;
      for (const auto& [cls, n] : summary->unstable_by_class)
        unstable_by_class += n;
      EXPECT_EQ(unstable_by_class, all.unstable) << where;
    }
    EXPECT_EQ(whole.digest(), merged.digest()) << where;
  }
}

TEST(Confidence, SplitsByStability) {
  std::vector<Observation> v{
      obs(0, 0, true, 0.9), obs(0, 1, true, 0.8),    // stable correct
      obs(1, 0, false, 0.4), obs(1, 1, false, 0.3),  // stable incorrect
      obs(2, 0, true, 0.55), obs(2, 1, false, 0.52)  // unstable
  };
  ConfidenceSplit s = split_confidences(v);
  EXPECT_EQ(s.stable_correct.size(), 2u);
  EXPECT_EQ(s.stable_incorrect.size(), 2u);
  EXPECT_EQ(s.unstable_correct.size(), 1u);
  EXPECT_EQ(s.unstable_incorrect.size(), 1u);
  EXPECT_DOUBLE_EQ(s.unstable_correct[0], 0.55);
}

TEST(Confidence, PrCurveMonotoneRecall) {
  std::vector<std::pair<double, bool>> data{
      {0.9, true}, {0.8, true}, {0.7, false}, {0.6, true}, {0.2, false}};
  auto curve = precision_recall_curve(data);
  ASSERT_EQ(curve.size(), 5u);
  EXPECT_DOUBLE_EQ(curve[0].precision, 1.0);
  EXPECT_DOUBLE_EQ(curve[0].recall, 0.2);
  EXPECT_DOUBLE_EQ(curve[1].recall, 0.4);
  EXPECT_DOUBLE_EQ(curve[2].precision, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(curve.back().recall, 3.0 / 5.0);
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_GE(curve[i].recall, curve[i - 1].recall);
  double ap = average_precision(curve);
  EXPECT_GT(ap, 0.0);
  EXPECT_LE(ap, 1.0);
}

TEST(TopK, AliasAwareCorrectness) {
  ShotPrediction p;
  p.topk = {7 /*bubble*/, 5 /*red_wine*/, 2 /*wine_bottle*/};
  p.topk_conf = {0.4, 0.3, 0.2};
  EXPECT_FALSE(topk_correct(p, /*truth=*/2, 1));
  EXPECT_TRUE(topk_correct(p, 2, 2));  // red_wine aliases wine_bottle
  EXPECT_TRUE(topk_correct(p, 2, 3));
  EXPECT_FALSE(topk_correct(p, 0, 3));
  EXPECT_THROW(topk_correct(p, 2, 4), CheckError);
}

TEST(StabilityCells, PaperGridStructure) {
  auto emb = table6_embedding_cells();
  auto kl = table6_kl_cells();
  ASSERT_EQ(emb.size(), 5u);
  ASSERT_EQ(kl.size(), 5u);
  EXPECT_EQ(emb[0].noise, "two_images");
  EXPECT_EQ(emb[1].images_per_class, 10);  // subsample-10
  EXPECT_EQ(emb[4].noise, "no_noise");
  EXPECT_EQ(emb[4].loss, StabilityLoss::kNone);
  EXPECT_EQ(kl[2].noise, "distortion");
  EXPECT_EQ(kl[2].loss, StabilityLoss::kKl);
  // Cache tokens are unique across the grid except the two no_noise
  // baselines, which share a cell (they differ by training seed, which
  // enters the cache key at a higher level).
  std::set<std::string> tokens;
  int collisions = 0;
  for (const auto& c : emb)
    collisions += tokens.insert(c.cache_token()).second ? 0 : 1;
  for (const auto& c : kl)
    collisions += tokens.insert(c.cache_token()).second ? 0 : 1;
  EXPECT_EQ(collisions, 1);
  // Hyper descriptions match the paper's table format.
  EXPECT_EQ(emb[4].hyper_description(), "N/A");
  EXPECT_NE(emb[1].hyper_description().find("#images=10"),
            std::string::npos);
  EXPECT_NE(kl[3].hyper_description().find("sigma2"), std::string::npos);
}

TEST(Workspace, BlobCacheRoundTrip) {
  setenv("EDGESTAB_CACHE", "/tmp/edgestab_test_cache", 1);
  std::filesystem::remove_all("/tmp/edgestab_test_cache");
  {
    WorkspaceConfig cfg;
    cfg.verbose = false;
    Workspace ws(cfg);
    Bytes data{1, 2, 3};
    Bytes out;
    EXPECT_FALSE(ws.load_blob("key1", out));
    ws.store_blob("key1", data);
    EXPECT_TRUE(ws.load_blob("key1", out));
    EXPECT_EQ(out, data);
  }
  std::filesystem::remove_all("/tmp/edgestab_test_cache");
  unsetenv("EDGESTAB_CACHE");
}

TEST(Workspace, FingerprintTracksConfig) {
  WorkspaceConfig a;
  a.verbose = false;
  WorkspaceConfig b = a;
  b.pretrain.per_class += 1;
  setenv("EDGESTAB_CACHE", "/tmp/edgestab_test_cache2", 1);
  Workspace wa(a), wb(b);
  EXPECT_NE(wa.fingerprint(), wb.fingerprint());
  Workspace wa2(a);
  EXPECT_EQ(wa.fingerprint(), wa2.fingerprint());
  std::filesystem::remove_all("/tmp/edgestab_test_cache2");
  unsetenv("EDGESTAB_CACHE");
}

TEST(Workspace, FreshModelMatchesConfig) {
  setenv("EDGESTAB_CACHE", "/tmp/edgestab_test_cache3", 1);
  WorkspaceConfig cfg;
  cfg.verbose = false;
  Workspace ws(cfg);
  Model m = ws.fresh_model();
  Pcg32 rng(1);
  m.init(rng);
  Tensor x({1, 3, cfg.model.input_size, cfg.model.input_size});
  Tensor logits = m.infer(x);
  EXPECT_EQ(logits.dim(1), cfg.model.num_classes);
  std::filesystem::remove_all("/tmp/edgestab_test_cache3");
  unsetenv("EDGESTAB_CACHE");
}

TEST(PairedCaptures, SplitCoversAllClassesBothSides) {
  auto fleet = end_to_end_fleet();
  LabRigConfig rig;
  rig.objects_per_class = 10;
  rig.angles = {0.0f};
  PairedCaptures data = collect_paired_captures(fleet[0], fleet[4], rig,
                                                0.7f);
  EXPECT_EQ(data.train_a.size() + data.test_a.size(), 50u);
  EXPECT_EQ(data.train_a.size(), data.train_b.size());
  EXPECT_NEAR(static_cast<double>(data.train_a.size()) / 50.0, 0.7, 0.05);
  std::set<int> train_classes(data.train_labels.begin(),
                              data.train_labels.end());
  std::set<int> test_classes(data.test_labels.begin(),
                             data.test_labels.end());
  EXPECT_EQ(train_classes.size(), 5u);
  EXPECT_EQ(test_classes.size(), 5u);
  // Stimulus ids are disjoint between the splits.
  for (int s : data.train_stimulus)
    EXPECT_EQ(std::count(data.test_stimulus.begin(),
                         data.test_stimulus.end(), s),
              0);
}

}  // namespace
}  // namespace edgestab
