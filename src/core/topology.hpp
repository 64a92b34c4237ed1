// Read-only machine description: packages, NUMA nodes, last-level-cache
// groups, cores and SMT siblings, parsed from /sys/devices/system/{cpu,node}
// (the root is injectable so tests can run against golden fixture trees).
//
// Nothing in the runtime reads it: workers are not pinned and memory is not
// node-bound. It stays because the end-to-end benchmark records detect()'s
// counts in its run conditions (bench/e2e/bench_e2e.cpp, topology_json).
// is_synthetic() is part of that record and is always false; both go once
// the benchmark stops reading them.
#pragma once

#include <string>
#include <vector>

namespace hq {

/// One hardware thread (logical CPU) and the sharing domains it belongs to.
/// All ids but `cpu` are dense indices into the owning topology (NOT raw
/// sysfs ids).
struct cpu_desc {
  unsigned cpu = 0;      ///< logical CPU id (sysfs cpuN)
  unsigned package = 0;  ///< physical package (socket)
  unsigned node = 0;     ///< NUMA node
  unsigned llc = 0;      ///< last-level-cache sharing group
  unsigned core = 0;     ///< physical core (globally unique across packages)
  unsigned smt = 0;      ///< thread rank within the core (0 = first sibling)
};

class topology {
 public:
  /// The machine's model from sysfs, else one node holding every hardware
  /// thread.
  static topology detect();

  /// Parse a sysfs tree rooted at `root` (normally /sys/devices/system;
  /// tests inject fixture directories). Missing files degrade gracefully:
  /// absent node dirs collapse to one node, absent cache dirs make the LLC
  /// group the node, absent sibling lists make every CPU its own core.
  static topology from_sysfs(const std::string& root);

  [[nodiscard]] const std::vector<cpu_desc>& cpus() const noexcept { return cpus_; }
  [[nodiscard]] unsigned num_cpus() const noexcept {
    return static_cast<unsigned>(cpus_.size());
  }
  [[nodiscard]] unsigned num_nodes() const noexcept { return num_nodes_; }
  [[nodiscard]] unsigned num_llcs() const noexcept { return num_llcs_; }
  [[nodiscard]] unsigned num_cores() const noexcept { return num_cores_; }
  [[nodiscard]] unsigned num_packages() const noexcept { return num_packages_; }
  /// Always false: every model describes the machine (see file comment).
  [[nodiscard]] bool is_synthetic() const noexcept { return false; }

 private:
  void index();  ///< recompute the num_* counts from cpus_

  std::vector<cpu_desc> cpus_;
  unsigned num_nodes_ = 0;
  unsigned num_llcs_ = 0;
  unsigned num_cores_ = 0;
  unsigned num_packages_ = 0;
};

}  // namespace hq
