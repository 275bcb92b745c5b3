// Live placement advice from the cluster view.
//
// Combines the two halves of the paper's pitch: the application's learned
// behaviour class (from the classifier / application database) and the
// cluster's live resource state (a gmetad snapshot). For an incoming job
// of a known class, headroom() scores a VM's class-specific slack — idle
// CPU for CPU jobs, spare disk bandwidth for I/O jobs, spare NIC
// bandwidth for network jobs, free memory for paging-prone jobs. The
// class-aware dispatch policy (sched/queue.hpp) breaks ties with it.
#pragma once

#include "core/class_label.hpp"
#include "metrics/snapshot.hpp"

namespace appclass::sched {

/// Headroom of one node for a class, in [0, 1] (1 = fully idle for that
/// resource dimension). Disk and NIC rates are normalized by the simulated
/// GSX guests' virtual device capacities.
double headroom(core::ApplicationClass cls, const metrics::Snapshot& snapshot);

}  // namespace appclass::sched
