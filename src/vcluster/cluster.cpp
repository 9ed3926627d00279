#include "vcluster/cluster.hpp"

#include <utility>

#include "vcluster/respawn.hpp"

namespace awp::vcluster {

void ThreadCluster::run(int nranks, const RankFn& fn) {
  SupervisorOptions options;
  options.respawnBudget = 0;
  SupervisedCluster(nranks, std::move(options)).run(fn);
}

}  // namespace awp::vcluster
