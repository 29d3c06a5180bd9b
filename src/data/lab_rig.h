// The lab rig: the paper's §3.2 controlled capture setup.
//
// Five phones on a mount photograph the same images displayed on a
// monitor in a dark room, at five horizontal angles. The rig renders
// each (object, angle) stimulus once, displays it, and has every phone
// photograph the identical emission — isolating device-internal
// variability exactly as the paper's setup does.
#pragma once

#include <cstdint>
#include <vector>

#include "data/render.h"
#include "data/screen.h"
#include "device/capture.h"
#include "device/fleets.h"

namespace edgestab {

struct LabShot {
  int object_index = 0;  ///< index into the rig's object list
  int class_id = 0;
  int angle_index = 0;   ///< 0..angles-1 (left..right)
  int phone_index = 0;   ///< index into the fleet
  int repeat = 0;        ///< consecutive-shot index (Figure 1 pairs)
  /// Capture-site fault accounting (src/fault). A dropped shot carries an
  /// empty capture and must be skipped by consumers; capture_attempts
  /// counts how many tries the phone needed (1 on a clean run).
  bool dropped = false;
  int capture_attempts = 1;
  Capture capture;
};

struct LabRigConfig {
  int objects_per_class = 30;
  int scene_size = 96;
  ScreenConfig screen;
  std::vector<float> angles = {-1.0f, -0.5f, 0.0f, 0.5f, 1.0f};
  std::uint64_t seed = 42;
  /// How many consecutive shots each phone takes of every stimulus
  /// (Figure 1 uses 2 shots of the same scene on one phone).
  int shots_per_stimulus = 1;
};

struct LabRun {
  std::vector<LabShot> shots;
  std::vector<int> object_class;  ///< class of every object index
  int angle_count = 0;
  int phone_count = 0;
};

/// Run the full rig: every phone captures every (object, angle) stimulus.
/// Shots are ordered by (object, angle, phone, repeat). Stimuli fan out
/// across the runtime thread pool; every capture's temporal noise comes
/// from a stream derived from (seed, phone, stimulus, shot), so the run
/// is bit-identical at any thread count.
LabRun run_lab_rig(const std::vector<PhoneProfile>& fleet,
                   const LabRigConfig& config);

/// Stable fingerprint of the rig configuration (seed, geometry, screen) —
/// recorded in run manifests so a result row names the exact capture
/// setup that produced it.
std::uint64_t rig_digest(const LabRigConfig& config);

/// Stimulus id helper — groups shots of the same displayed image.
inline int stimulus_id(const LabRun& run, const LabShot& shot) {
  return shot.object_index * run.angle_count + shot.angle_index;
}

}  // namespace edgestab
