#pragma once
// ThreadCluster launches N "ranks" as threads and runs a rank function on
// each, giving every rank a Communicator. This stands in for the MPI job
// launch on the paper's machines (Table 1): same SPMD structure, same
// message-passing discipline, laptop-scale execution.
//
// It is SupervisedCluster with a respawn budget of 0: the one runner's
// fail-stop path (§III.F) fences and unwinds the surviving ranks when a
// rank throws, wherever they are blocked.

#include <functional>

#include "vcluster/comm.hpp"

namespace awp::vcluster {

class ThreadCluster {
 public:
  using RankFn = std::function<void(Communicator&)>;

  // Run `fn` on `nranks` ranks; blocks until all complete. If any rank
  // throws, its peers are fenced out of their waits and the first
  // exception (by rank order) is rethrown after join.
  static void run(int nranks, const RankFn& fn);
};

}  // namespace awp::vcluster
