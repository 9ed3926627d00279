#pragma once
// Surface observation: seismogram receivers at named sites (Fig 21) and
// the running peak-ground-velocity maps the science analyses are built on
// (PGV in Figs 3, 15, 17; PGVH — root sum of squares of the horizontal
// components — in Fig 21).

#include <cstdint>
#include <string>
#include <vector>

#include "core/geometry.hpp"
#include "grid/staggered_grid.hpp"
#include "vcluster/comm.hpp"

namespace awp::core {

struct SeismogramTrace {
  std::string name;
  std::size_t gi = 0, gj = 0;
  std::vector<float> u, v, w;  // surface velocities per recorded step
};

class ReceiverSet {
 public:
  void add(std::string name, std::size_t gi, std::size_t gj);
  void bind(const DomainGeometry& geom);

  // Record surface velocities for locally owned receivers at the given
  // simulation step. Step-indexed and idempotent: a rollback replay that
  // revisits recorded steps overwrites them in place instead of appending
  // duplicates, so traces stay one-sample-per-step.
  void record(const grid::StaggeredGrid& g, std::size_t step);
  // Append at the next step index (single-pass runs with no rollback).
  void record(const grid::StaggeredGrid& g) { record(g, recordedSteps()); }

  // Steps recorded so far (traces grow in lockstep).
  [[nodiscard]] std::size_t recordedSteps() const {
    return traces_.empty() ? 0 : traces_.front().u.size();
  }
  [[nodiscard]] std::uint64_t samplesRewritten() const {
    return samplesRewritten_;
  }

  // Collective: gather all traces to rank 0 (other ranks get {}).
  [[nodiscard]] std::vector<SeismogramTrace> gather(
      vcluster::Communicator& comm) const;

  [[nodiscard]] const std::vector<SeismogramTrace>& localTraces() const {
    return traces_;
  }

 private:
  struct Pending {
    std::string name;
    std::size_t gi, gj;
  };
  std::vector<Pending> pending_;
  std::vector<SeismogramTrace> traces_;   // bound, locally owned
  std::vector<std::size_t> li_, lj_, lk_;  // local raw indices per trace
  std::uint64_t samplesRewritten_ = 0;
};

// Per-surface-cell peak velocity accumulation.
class SurfaceMonitor {
 public:
  explicit SurfaceMonitor(const DomainGeometry& geom);

  void accumulate(const grid::StaggeredGrid& g);

  // Collective: assemble the global PGVH map (nx-by-ny, row-major, x
  // fastest) on rank 0; other ranks get an empty vector.
  [[nodiscard]] std::vector<float> gatherPgvh(
      vcluster::Communicator& comm) const;
  // Same for the vertical-included peak |v|.
  [[nodiscard]] std::vector<float> gatherPgv(
      vcluster::Communicator& comm) const;

  [[nodiscard]] bool active() const { return active_; }

 private:
  std::vector<float> gatherMap(vcluster::Communicator& comm,
                               const std::vector<float>& local) const;

  DomainGeometry geom_;
  bool active_ = false;       // this rank owns part of the surface
  std::vector<float> pgvh_;   // local nx*ny, x fastest
  std::vector<float> pgv_;
};

}  // namespace awp::core
