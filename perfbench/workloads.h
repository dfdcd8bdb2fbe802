// The benchmark's three workloads. Each fills `report` with its end-to-end
// metrics (untraced run) or per-layer metrics (traced run) and counts every
// operation it attempts and every output check that fails.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/report.h"

namespace perfbench {

// Per-second Huawei-like fleet through SimulateFleetStreamUniform with the
// moving_average_1 policy: trace generation, simulation and the ordered
// chunk fold do the work.
void RunFleetStream(const RunArgs& args, Report* report);

// The paper's pipeline: TrainFemux on an Azure-like train split, then
// replay of held-out apps with FemuxPolicy on the trained model.
void RunFemux(const RunArgs& args, Report* report);

// Open-loop load against one ScalerDaemon: a generator thread pushes one
// sample per app per tick on a fixed schedule while ticks fire on theirs.
void RunDaemonTick(const RunArgs& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
