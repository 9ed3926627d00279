#pragma once
// Ghost-cell exchange between neighboring subgrids (§III.A: "Ghost cells,
// which occupy a two-cell padding layer, manage the most recently updated
// wavefield parameters exchanged from the edge of the neighboring
// subgrids").
//
// Two communication models are implemented, matching §IV.A:
//  * Synchronous: axis-by-axis blocking send/recv pairs with a global
//    barrier after every axis — the original cascading model whose accrued
//    latency grows with the communication path.
//  * Asynchronous: every transfer posted first as a buffered send with a
//    unique tag ("allows out-of-order arrival and the unique tags maintain
//    data integrity"), then every receive completed, with no barrier.
//
// Orthogonal to the mode, `reduced` selects the v7.2 algorithm-level
// reduced communication tables (see field_id.hpp) instead of the full
// 2-planes-each-way exchange.

#include <cstdint>
#include <vector>

#include "grid/field_id.hpp"
#include "grid/staggered_grid.hpp"
#include "vcluster/cart.hpp"
#include "vcluster/comm.hpp"

namespace awp::grid {

struct ExchangeStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t planes = 0;
};

class HaloExchanger {
 public:
  enum class Mode { Synchronous, Asynchronous };

  HaloExchanger(vcluster::Communicator& comm,
                const vcluster::CartTopology& topo, Mode mode, bool reduced);

  // Exchange the three velocity components (collective).
  void exchangeVelocities(StaggeredGrid& g);
  // Exchange the six stress components (collective).
  void exchangeStresses(StaggeredGrid& g);
  // One-time full exchange of the material arrays after loading.
  void exchangeMaterial(StaggeredGrid& g);
  // Exchange an arbitrary field subset (used by the overlapped
  // per-component interleaving of §IV.C).
  void exchangeFields(StaggeredGrid& g, const std::vector<FieldId>& fields) {
    runExchange(g, fields, /*forceFull=*/false);
  }

  [[nodiscard]] const ExchangeStats& stats() const { return stats_; }
  void resetStats() { stats_ = ExchangeStats{}; }

  [[nodiscard]] Mode mode() const { return mode_; }
  [[nodiscard]] bool reduced() const { return reduced_; }

 private:
  struct Transfer {
    Array3f* field = nullptr;
    int fieldSlot = 0;  // unique per field within one exchange call
    int axis = 0;
    int dir = 0;  // -1 or +1: which neighbor
  };

  void runExchange(StaggeredGrid& g, const std::vector<FieldId>& fields,
                   bool forceFull);
  void runExchangeRaw(std::vector<Array3f*> fields,
                      const std::vector<FieldNeed>& needs);

  void sendOne(Array3f& f, const AxisNeed& need, int axis, int dir, int tag);
  void recvOne(Array3f& f, const AxisNeed& need, int axis, int dir, int tag);
  int tagFor(int fieldSlot, int axis, int dir) const;

  vcluster::Communicator& comm_;
  const vcluster::CartTopology& topo_;
  Mode mode_;
  bool reduced_;
  int seq_ = 0;
  ExchangeStats stats_;
  // Persistent pack/unpack staging: grown to the largest plane on first
  // use, then reused — the per-message path never allocates again.
  std::vector<float> sendScratch_;
  std::vector<float> recvScratch_;
};

}  // namespace awp::grid
