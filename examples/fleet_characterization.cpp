// Fleet characterization: measure how YOUR device mix behaves. Builds a
// custom three-phone fleet (one premium, one budget, one with an
// aggressive ISP), runs the lab rig, and prints an instability report —
// the workflow a team shipping an on-device model would run before
// choosing mitigation strategies.
#include <cstdio>

#include "core/experiment.h"
#include "core/workspace.h"
#include "data/labels.h"
#include "util/table.h"

using namespace edgestab;

namespace {

PhoneProfile premium_phone() {
  PhoneProfile p;
  p.name = "premium";
  p.sensor.width = 64;
  p.sensor.height = 64;
  p.sensor.unit_seed = 501;
  p.isp.name = "premium_isp";
  p.isp.s_curve = 0.3f;
  p.isp.sharpen_amount = 0.5f;
  p.storage_format = ImageFormat::kHeifLike;
  p.storage_quality = 85;
  p.noise_stream = 51;
  return p;
}

PhoneProfile budget_phone() {
  PhoneProfile p;
  p.name = "budget";
  p.sensor.width = 64;
  p.sensor.height = 64;
  p.sensor.unit_seed = 502;
  p.sensor.full_well = 6000.0f;  // noisier sensor
  p.sensor.read_noise = 3.0f;
  p.isp.name = "budget_isp";
  p.isp.demosaic_kind = DemosaicKind::kBilinear;
  p.isp.denoise_strength = 0.6f;
  p.isp.sharpen_amount = 0.2f;
  p.storage_format = ImageFormat::kJpegLike;
  p.storage_quality = 80;
  p.noise_stream = 52;
  return p;
}

PhoneProfile vivid_phone() {
  PhoneProfile p;
  p.name = "vivid";
  p.sensor.width = 64;
  p.sensor.height = 64;
  p.sensor.unit_seed = 503;
  p.isp.name = "vivid_isp";
  p.isp.wb_gains = {1.15f, 1.0f, 0.95f};
  p.isp.ccm = {1.45f, -0.32f, -0.13f,  //
               -0.24f, 1.40f, -0.16f,  //
               -0.10f, -0.36f, 1.46f};
  p.isp.s_curve = 0.55f;
  p.isp.saturation = 1.3f;
  p.storage_format = ImageFormat::kWebpLike;
  p.storage_quality = 70;
  p.noise_stream = 53;
  return p;
}

}  // namespace

int main() {
  Workspace workspace;
  Model model = workspace.base_model();

  std::vector<PhoneProfile> fleet{premium_phone(), budget_phone(),
                                  vivid_phone()};
  LabRigConfig rig;
  rig.objects_per_class = 15;
  rig.seed = 99;

  std::printf("characterizing a custom %zu-phone fleet...\n", fleet.size());
  EndToEndResult r = run_end_to_end(model, fleet, rig);

  Table accuracy({"DEVICE", "STORAGE", "ACCURACY", "TOP-3"});
  for (std::size_t p = 0; p < fleet.size(); ++p)
    accuracy.add_row({fleet[p].name,
                      format_name(fleet[p].storage_format),
                      Table::pct(r.accuracy_by_phone[p]),
                      Table::pct(r.accuracy_by_phone_top3[p])});
  std::printf("\n%s", accuracy.str().c_str());

  std::printf("\ngroup instability: %s over %lld stimuli\n",
              Table::pct(r.overall.instability()).c_str(),
              r.overall.total_items);

  Table pairwise({"PAIR", "PAIRWISE INSTABILITY"});
  for (std::size_t a = 0; a < fleet.size(); ++a)
    for (std::size_t b = a + 1; b < fleet.size(); ++b) {
      InstabilityResult pr = pairwise_instability(
          r.observations, static_cast<int>(a), static_cast<int>(b));
      pairwise.add_row({fleet[a].name + " vs " + fleet[b].name,
                        Table::pct(pr.instability())});
    }
  std::printf("\n%s", pairwise.str().c_str());

  Table per_class({"CLASS", "INSTABILITY"});
  for (const auto& [cls, res] : r.by_class)
    per_class.add_row({class_name(cls), Table::pct(res.instability())});
  std::printf("\n%s", per_class.str().c_str());

  std::printf(
      "\nInterpretation: pairs with the largest pipeline gap drive the\n"
      "group number; use the stability_finetune example to mitigate.\n");
  return 0;
}
