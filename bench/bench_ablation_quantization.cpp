// Ablation — model quantization as an instability source. Edge devices
// ship int8 (or lower) builds of the same network; a user base split
// between fp32 and quantized builds is one more "same model, different
// device" pair. Measures accuracy and fp32-vs-intN instability on the
// calibrated fleet's captures, across integer widths.
#include "bench_util.h"

#include "core/experiment.h"
#include "nn/quantize.h"

using namespace edgestab;

int main(int argc, char** argv) {
  bench::Run bench_run(
      "ablation_quantization",
      "Ablation — quantized inference as an instability source", argc, argv);
  Workspace ws;
  Model float_model = ws.base_model();

  // One phone's captures as the shared stimulus set.
  LabRigConfig rig = bench::standard_rig(/*objects_per_class=*/20);
  std::vector<PhoneProfile> fleet = end_to_end_fleet();
  std::vector<PhoneProfile> one_phone{fleet[0]};
  bench_run.record_workspace(ws);
  bench_run.record_rig(rig);
  bench_run.record_fleet(one_phone);
  struct QuantRow {
    int bits;
    double accuracy;
    double instability;
    double weight_mae;
  };
  struct QuantResult {
    double fp32_accuracy = 0.0;
    std::vector<QuantRow> rows;
    int lost_shots = 0;
    std::size_t classified = 0;
  };
  // Whole compute path — rig, delivery, fp32 + quantized inference —
  // runs under run_repeats; the tables print from the last repeat.
  QuantResult result = bench::run_repeats(bench_run, [&] {
    QuantResult out;
    LabRun run = run_lab_rig(one_phone, rig);
    std::vector<Tensor> inputs;
    std::vector<int> labels;
    for (std::size_t i = 0; i < run.shots.size(); ++i) {
      const LabShot& shot = run.shots[i];
      if (shot.dropped) {
        ++out.lost_shots;
        continue;
      }
      ShotDelivery d = deliver_shot(
          "quantization_delivery", shot.capture, shot.phone_index,
          one_phone[0].noise_stream, stimulus_id(run, shot), shot.repeat);
      if (!d.usable) {
        ++out.lost_shots;
        continue;
      }
      inputs.push_back(capture_to_input(d.image));
      labels.push_back(shot.class_id);
    }
    if (inputs.empty()) return out;
    out.classified = inputs.size();
    std::vector<ShotPrediction> float_preds =
        classify_inputs(float_model, inputs);
    auto accuracy_of = [&](const std::vector<ShotPrediction>& preds) {
      int correct = 0;
      for (std::size_t i = 0; i < preds.size(); ++i)
        correct += topk_correct(preds[i], labels[i], 1) ? 1 : 0;
      return static_cast<double>(correct) /
             static_cast<double>(preds.size());
    };
    out.fp32_accuracy = accuracy_of(float_preds);

    for (int bits : {8, 6, 4, 3}) {
      Model q_model = ws.fresh_model();
      q_model.load_state(float_model.save_state());
      QuantizationSpec spec;
      spec.bits = bits;
      QuantizationReport report = quantize_weights(q_model, spec);
      std::vector<ShotPrediction> q_preds = classify_inputs(q_model, inputs);

      std::vector<Observation> obs;
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        Observation a;
        a.item = static_cast<int>(i);
        a.env = 0;
        a.class_id = labels[i];
        a.correct = topk_correct(float_preds[i], labels[i], 1);
        obs.push_back(a);
        Observation b = a;
        b.env = 1;
        b.correct = topk_correct(q_preds[i], labels[i], 1);
        obs.push_back(b);
      }
      InstabilityResult inst = compute_instability(obs);
      out.rows.push_back({bits, accuracy_of(q_preds), inst.instability(),
                          report.total_mean_abs_error});
    }
    return out;
  });

  if (result.lost_shots > 0)
    std::printf("[fault] %d shot(s) lost to injected faults\n",
                result.lost_shots);
  if (result.classified == 0) {
    std::printf("all shots lost — nothing to classify\n");
    return bench_run.finish();
  }
  bench_run.set_items(static_cast<double>(result.classified));

  Table t({"PRECISION", "ACCURACY", "VS-FP32 INSTABILITY", "WEIGHT MAE"});
  CsvWriter csv({"bits", "accuracy", "instability_vs_fp32", "weight_mae"});
  t.add_row({"fp32", Table::pct(result.fp32_accuracy), "-", "-"});
  csv.add_row({"32", Table::num(result.fp32_accuracy, 4), "0", "0"});
  for (const QuantRow& row : result.rows) {
    t.add_row({"int" + std::to_string(row.bits), Table::pct(row.accuracy),
               Table::pct(row.instability, 2),
               Table::num(row.weight_mae, 5)});
    csv.add_row({std::to_string(row.bits), Table::num(row.accuracy, 4),
                 Table::num(row.instability, 4),
                 Table::num(row.weight_mae, 6)});
    bench_run.record_metric(
        "int" + std::to_string(row.bits) + "_instability", row.instability);
  }
  bench_run.record_metric("fp32_accuracy", result.fp32_accuracy);

  std::printf("\n%s", t.str().c_str());
  std::printf(
      "\nReading: int8 costs almost no accuracy yet already flips some\n"
      "borderline predictions against the fp32 build; aggressive widths\n"
      "trade accuracy for rapidly growing divergence — a deployment-side\n"
      "instability source on top of the paper's input-side ones.\n");
  bench_run.write_csv(csv, "ablation_quantization.csv");
  return bench_run.finish();
}
