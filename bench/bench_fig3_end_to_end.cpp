// Figure 3 — the end-to-end experiment (§4.1):
//   (a) accuracy by phone model        (flat, paper: 59-64%)
//   (b) instability by class           (paper: ~15%, varies by class)
//   (c) instability by angle
//   (d) within-phone instability over repeat photos (much lower)
// plus the headline group instability (paper: 14-17%).
#include "bench_util.h"

#include "core/experiment.h"
#include "data/labels.h"

using namespace edgestab;

int main(int argc, char** argv) {
  bench::Run run("fig3", "Figure 3 — end-to-end accuracy and instability", argc, argv);
  Workspace ws;
  Model model = ws.base_model();

  LabRigConfig rig = bench::standard_rig();
  rig.shots_per_stimulus = 2;  // enables the Fig 3(d) analysis
  std::vector<PhoneProfile> fleet = end_to_end_fleet();
  run.record_workspace(ws);
  run.record_rig(rig);
  run.record_fleet(fleet);

  WallTimer timer;
  EndToEndResult r = bench::run_repeats(
      run, [&] { return run_end_to_end(model, fleet, rig); });
  std::printf("captured + classified %lld stimuli x %zu phones in %.1fs\n",
              r.overall.total_items, fleet.size(), timer.seconds());
  run.set_items(static_cast<double>(r.overall.total_items));

  // (a) Accuracy by phone.
  {
    Table t({"PHONE", "MODEL", "ACCURACY"});
    CsvWriter csv({"phone", "model", "accuracy"});
    for (std::size_t p = 0; p < fleet.size(); ++p) {
      t.add_row({fleet[p].name, fleet[p].model_code,
                 Table::pct(r.accuracy_by_phone[p])});
      csv.add_row({fleet[p].name, fleet[p].model_code,
                   Table::num(r.accuracy_by_phone[p], 4)});
    }
    std::printf("\n(a) Accuracy by phone model\n%s", t.str().c_str());
    run.write_csv(csv, "fig3a_accuracy_by_phone.csv");
  }

  // (b) Instability by class.
  {
    Table t({"CLASS", "INSTABILITY", "ALL-CORRECT", "ALL-WRONG"});
    CsvWriter csv({"class", "instability", "all_correct", "all_incorrect"});
    for (const auto& [cls, res] : r.by_class) {
      t.add_row({class_name(cls), Table::pct(res.instability()),
                 Table::pct(res.all_correct_fraction()),
                 Table::pct(static_cast<double>(res.all_incorrect_items) /
                            res.total_items)});
      csv.add_row({class_name(cls), Table::num(res.instability(), 4),
                   std::to_string(res.all_correct_items),
                   std::to_string(res.all_incorrect_items)});
    }
    t.add_separator();
    t.add_row({"ALL CLASSES", Table::pct(r.overall.instability()),
               Table::pct(r.overall.all_correct_fraction()),
               Table::pct(static_cast<double>(r.overall.all_incorrect_items) /
                          r.overall.total_items)});
    std::printf("\n(b) Instability by class (group, all 5 phones)\n%s",
                t.str().c_str());
    std::printf("paper band: 14-17%% overall; varies strongly by class\n");
    run.write_csv(csv, "fig3b_instability_by_class.csv");
  }

  // (c) Instability by angle.
  {
    static const char* kAngles[] = {"left", "center-left", "center",
                                    "center-right", "right"};
    Table t({"ANGLE", "INSTABILITY"});
    CsvWriter csv({"angle", "instability"});
    for (const auto& [angle, res] : r.by_angle) {
      std::string label =
          angle >= 0 && angle < 5 ? kAngles[angle] : std::to_string(angle);
      t.add_row({label, Table::pct(res.instability())});
      csv.add_row({label, Table::num(res.instability(), 4)});
    }
    std::printf("\n(c) Instability by experiment angle\n%s", t.str().c_str());
    run.write_csv(csv, "fig3c_instability_by_angle.csv");
  }

  // (d) Within-phone instability over repeat photos.
  {
    Table t({"PHONE", "WITHIN-PHONE INSTABILITY"});
    CsvWriter csv({"phone", "within_instability"});
    double mean_within = 0.0;
    for (std::size_t p = 0; p < fleet.size(); ++p) {
      t.add_row({fleet[p].name,
                 Table::pct(r.within_phone_instability[p])});
      csv.add_row({fleet[p].name,
                   Table::num(r.within_phone_instability[p], 4)});
      mean_within += r.within_phone_instability[p] / fleet.size();
    }
    std::printf("\n(d) Instability over repeat photos (same phone)\n%s",
                t.str().c_str());
    std::printf(
        "mean within-phone %.1f%% vs cross-phone %.1f%% — the paper's "
        "point:\nwithin-model instability is much lower than across "
        "models.\n",
        mean_within * 100.0, r.overall.instability() * 100.0);
    run.write_csv(csv, "fig3d_within_phone.csv");
  }
  // Headline metrics the regression sentinel guards across runs.
  {
    double mean_accuracy = 0.0;
    double mean_within = 0.0;
    for (std::size_t p = 0; p < fleet.size(); ++p) {
      mean_accuracy += r.accuracy_by_phone[p] / fleet.size();
      mean_within += r.within_phone_instability[p] / fleet.size();
    }
    run.record_metric("group_instability", r.overall.instability());
    run.record_metric("mean_accuracy", mean_accuracy);
    run.record_metric("mean_within_phone_instability", mean_within);
  }
  bench::report_resilience(run, r.resilience);
  bench::check_fault_ledger(run, "capture", "end_to_end", r.resilience);
  bench::check_flip_ledger(run, "end_to_end", r.overall);
  bench::check_alert_ledger(run, "capture", "end_to_end", "end_to_end");
  return run.finish();
}
