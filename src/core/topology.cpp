#include "core/topology.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

namespace hq {

namespace {

/// Read a one-line sysfs attribute; empty string when absent/unreadable.
std::string read_attr(const std::string& path) {
  std::ifstream f(path);
  if (!f.is_open()) return {};
  std::string line;
  std::getline(f, line);
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r' ||
                           line.back() == ' ')) {
    line.pop_back();
  }
  return line;
}

long read_long(const std::string& path, long fallback) {
  const std::string s = read_attr(path);
  if (s.empty()) return fallback;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  return end == s.c_str() ? fallback : v;
}

/// Parse a kernel cpulist ("0-3,5,8-9") into ascending CPU ids.
std::vector<unsigned> parse_cpulist(const std::string& list) {
  std::vector<unsigned> cpus;
  std::stringstream ss(list);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) continue;
    const std::size_t dash = tok.find('-');
    char* end = nullptr;
    if (dash == std::string::npos) {
      const long v = std::strtol(tok.c_str(), &end, 10);
      if (end != tok.c_str() && v >= 0) cpus.push_back(static_cast<unsigned>(v));
    } else {
      const long lo = std::strtol(tok.c_str(), &end, 10);
      const long hi = std::strtol(tok.c_str() + dash + 1, &end, 10);
      for (long v = lo; v >= 0 && v <= hi; ++v) {
        cpus.push_back(static_cast<unsigned>(v));
      }
    }
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

/// Renumber arbitrary raw ids into dense 0..k-1 ids, preserving raw order.
unsigned densify(std::vector<unsigned>& ids) {
  std::vector<unsigned> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (unsigned& id : ids) {
    id = static_cast<unsigned>(
        std::lower_bound(sorted.begin(), sorted.end(), id) - sorted.begin());
  }
  return static_cast<unsigned>(sorted.size());
}

}  // namespace

topology topology::detect() {
  topology t = from_sysfs("/sys/devices/system");
  if (t.num_cpus() == 0) {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned c = 0; c < n; ++c)
      t.cpus_.push_back(cpu_desc{c, 0, 0, 0, c, 0});
    t.index();
  }
  return t;
}

topology topology::from_sysfs(const std::string& root) {
  topology t;
  const std::string cpu_root = root + "/cpu";
  std::vector<unsigned> online = parse_cpulist(read_attr(cpu_root + "/online"));
  if (online.empty()) return t;

  // NUMA node of each CPU from node/nodeN/cpulist; absent tree = one node.
  std::map<unsigned, unsigned> cpu_node;
  for (unsigned n = 0; n < 1024; ++n) {
    const std::string list =
        read_attr(root + "/node/node" + std::to_string(n) + "/cpulist");
    if (list.empty()) {
      if (n > 64) break;  // tolerate sparse node ids near the origin
      continue;
    }
    for (unsigned cpu : parse_cpulist(list)) cpu_node[cpu] = n;
  }

  std::vector<unsigned> raw_pkg, raw_node, raw_llc, raw_core;
  std::map<std::string, unsigned> llc_groups;    // shared_cpu_list -> group id
  std::map<std::pair<long, long>, unsigned> core_groups;  // (pkg, core_id)

  for (unsigned cpu : online) {
    const std::string base = cpu_root + "/cpu" + std::to_string(cpu);
    cpu_desc d;
    d.cpu = cpu;
    const long pkg = read_long(base + "/topology/physical_package_id", 0);
    const long core_id = read_long(base + "/topology/core_id", cpu);

    // SMT rank: position among the online thread siblings.
    std::string sib = read_attr(base + "/topology/thread_siblings_list");
    if (sib.empty()) sib = read_attr(base + "/topology/core_cpus_list");
    unsigned rank = 0;
    for (unsigned s : parse_cpulist(sib)) {
      if (s >= cpu) break;
      if (std::binary_search(online.begin(), online.end(), s)) ++rank;
    }
    d.smt = rank;

    // LLC group: deepest data/unified cache level's shared_cpu_list.
    long best_level = -1;
    std::string best_shared;
    for (unsigned idx = 0; idx < 32; ++idx) {
      const std::string cbase = base + "/cache/index" + std::to_string(idx);
      const long level = read_long(cbase + "/level", -1);
      if (level < 0) continue;
      if (read_attr(cbase + "/type") == "Instruction") continue;
      if (level > best_level) {
        const std::string shared = read_attr(cbase + "/shared_cpu_list");
        if (!shared.empty()) {
          best_level = level;
          best_shared = shared;
        }
      }
    }

    auto node_it = cpu_node.find(cpu);
    const unsigned node = node_it != cpu_node.end() ? node_it->second : 0;
    // No cache description: fall back to one LLC per node.
    if (best_shared.empty()) best_shared = "node:" + std::to_string(node);
    const unsigned llc =
        llc_groups.emplace(best_shared, static_cast<unsigned>(llc_groups.size()))
            .first->second;
    const unsigned core =
        core_groups
            .emplace(std::make_pair(pkg, core_id),
                     static_cast<unsigned>(core_groups.size()))
            .first->second;

    raw_pkg.push_back(static_cast<unsigned>(pkg));
    raw_node.push_back(node);
    raw_llc.push_back(llc);
    raw_core.push_back(core);
    t.cpus_.push_back(d);
  }

  densify(raw_pkg);
  densify(raw_node);
  for (std::size_t i = 0; i < t.cpus_.size(); ++i) {
    t.cpus_[i].package = raw_pkg[i];
    t.cpus_[i].node = raw_node[i];
    t.cpus_[i].llc = raw_llc[i];
    t.cpus_[i].core = raw_core[i];
  }
  t.index();
  return t;
}

void topology::index() {
  std::vector<unsigned> v;
  auto count = [&](unsigned cpu_desc::* field) {
    v.clear();
    for (const cpu_desc& d : cpus_) v.push_back(d.*field);
    return densify(v);
  };
  num_packages_ = count(&cpu_desc::package);
  num_nodes_ = count(&cpu_desc::node);
  num_llcs_ = count(&cpu_desc::llc);
  num_cores_ = count(&cpu_desc::core);
}

}  // namespace hq
