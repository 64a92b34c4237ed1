// Umbrella header for the hyperqueue library.
//
//   #include "hq.hpp"
//
// brings in the scheduler (hq::scheduler, hq::scheduler_lease, hq::spawn,
// hq::sync), task dataflow on versioned objects (hq::versioned,
// hq::indep/outdep/inoutdep), and hyperqueues (hq::hyperqueue,
// hq::pushdep/popdep/pushpopdep).
#pragma once

#include "core/hyperqueue.hpp"   // IWYU pragma: export
#include "sched/dataflow.hpp"    // IWYU pragma: export
#include "sched/scheduler.hpp"   // IWYU pragma: export
#include "sched/scheduler_lease.hpp"  // IWYU pragma: export
#include "sched/spawn.hpp"       // IWYU pragma: export
