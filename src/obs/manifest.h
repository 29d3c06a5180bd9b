// Per-run provenance manifests.
//
// Every bench emits `bench_out/<name>.meta.json` describing how its CSV
// rows were produced: rig seed, fleet composition, config digests
// (util/hashing fingerprints of the phone/ISP/codec configs), the git
// commit, counters and stage-timing summaries, and the artifact list —
// enough to re-derive or diff any result without spelunking the binary.
//
// The manifest is deliberately generic (string fields, named digests,
// device rows) so this layer depends only on util; the bench harness
// fills it from the typed configs it owns.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace edgestab::obs {

/// Point-in-time process resource accounting (getrusage where the
/// platform has it; zeros elsewhere). Rendered into every manifest's
/// `fields` at write time — independent of the regression sentinel, so
/// each run's meta.json names the CPU time and peak memory it cost.
struct ResourceUsage {
  double user_seconds = 0.0;
  double sys_seconds = 0.0;
  long max_rss_kb = 0;  ///< peak resident set, KiB (0 when unavailable)
};

/// Cumulative usage of the calling process.
ResourceUsage process_usage();

/// One device row in the manifest's fleet table.
struct ManifestDevice {
  std::string name;
  std::string model_code;
  std::string isp;
  std::string format;
  int quality = 0;
  std::string soc;
  std::string digest;  ///< hex fingerprint of the full profile
};

class RunManifest {
 public:
  explicit RunManifest(std::string bench_name);

  void set_seed(std::uint64_t seed);
  void set_wall_seconds(double seconds);
  void set_field(const std::string& key, const std::string& value);
  void set_field(const std::string& key, double value);

  void add_digest(const std::string& name, std::uint64_t digest);
  /// Like add_digest, but replaces an earlier digest of the same name.
  void set_digest(const std::string& name, std::uint64_t digest);
  void add_device(ManifestDevice device);
  void add_artifact(const std::string& path);

  const std::string& bench_name() const { return bench_name_; }
  bool has_seed() const { return has_seed_; }
  std::uint64_t seed() const { return seed_; }

  /// Named digests in insertion order (hex rendering is the exporter's
  /// job); the regression sentinel snapshots these into the run archive.
  const std::vector<std::pair<std::string, std::uint64_t>>& digests() const {
    return digests_;
  }

  /// Stored string/number field lookups; nullptr / nullopt when unset.
  const std::string* find_string_field(const std::string& key) const;
  std::optional<double> find_number_field(const std::string& key) const;

  /// Render the manifest, folding in the current global counter and
  /// stage-timing state (milliseconds).
  std::string to_json() const;

  /// Write to `path`; reports failure on stderr and via the return value.
  bool write(const std::string& path) const;

 private:
  std::string bench_name_;
  bool has_seed_ = false;
  std::uint64_t seed_ = 0;
  double wall_seconds_ = -1.0;
  std::vector<std::pair<std::string, std::string>> string_fields_;
  std::vector<std::pair<std::string, double>> number_fields_;
  std::vector<std::pair<std::string, std::uint64_t>> digests_;
  std::vector<ManifestDevice> devices_;
  std::vector<std::string> artifacts_;
};

/// Commit SHA of the enclosing git checkout (searches upward from the
/// working directory); empty when not in a repository.
std::string git_head_sha();

/// 16-hex-digit rendering of a util/hashing fingerprint.
std::string hex_digest(std::uint64_t digest);

}  // namespace edgestab::obs
