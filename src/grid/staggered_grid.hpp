#pragma once
// Local staggered-grid state for one rank's subdomain: the nine wavefield
// components of the velocity–stress formulation (§II.A–B), the material
// arrays (with reciprocal Lamé parameters stored as in §IV.B), and the
// coarse-grained memory variables for anelastic attenuation (§II.A).
//
// Staggering convention (see src/core/kernels.cpp for the stencils):
//   xx, yy, zz at cell centers (i, j, k)
//   u  at (i-1/2, j,     k    )     xy at (i-1/2, j+1/2, k    )
//   v  at (i,     j+1/2, k    )     xz at (i-1/2, j,     k+1/2)
//   w  at (i,     j,     k+1/2)     yz at (i,     j+1/2, k+1/2)
//
// Storage: every field is allocated with a 2-cell halo on all sides; the
// interior spans raw indices [kHalo, kHalo + n) per axis. k increases
// upward: the free surface is the TOP interior plane k = kHalo + nz - 1.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "grid/field_id.hpp"
#include "mesh/partitioner.hpp"
#include "util/array3.hpp"
#include "vmodel/material.hpp"

namespace awp::grid {

inline constexpr std::size_t kHalo = 2;

struct GridDims {
  std::size_t nx = 0, ny = 0, nz = 0;
  [[nodiscard]] std::size_t count() const { return nx * ny * nz; }
};

// Attenuation band for the coarse-grained memory variables: 8 relaxation
// times, log-spaced over [1/(2π fMax), 1/(2π fMin)], distributed over the
// 2x2x2 positions of each coarse-grained cell (Day 1998; §II.A: "a large
// number of relaxation times (eight in our calculations)").
struct AttenuationConfig {
  bool enabled = false;
  double fMin = 0.05;  // Hz
  double fMax = 2.0;   // Hz
};

class StaggeredGrid {
 public:
  StaggeredGrid(GridDims dims, double h, double dt,
                AttenuationConfig attenuation = {});

  [[nodiscard]] const GridDims& dims() const { return dims_; }
  [[nodiscard]] double h() const { return h_; }
  [[nodiscard]] double dt() const { return dt_; }
  // Retighten the time step (health-guard rollback). Safe mid-run: the
  // kernels and PML updates read dt() fresh every step, and the saved
  // wavefield state is dt-independent.
  void setDt(double dt);
  [[nodiscard]] const AttenuationConfig& attenuation() const {
    return attenuation_;
  }

  // Raw (halo-inclusive) extents.
  [[nodiscard]] std::size_t sx() const { return dims_.nx + 2 * kHalo; }
  [[nodiscard]] std::size_t sy() const { return dims_.ny + 2 * kHalo; }
  [[nodiscard]] std::size_t sz() const { return dims_.nz + 2 * kHalo; }

  // Wavefields.
  Array3f u, v, w;
  Array3f xx, yy, zz, xy, xz, yz;

  // Material. Both direct and reciprocal Lamé arrays are kept: the plain
  // kernel uses lam/mu with per-use divisions, the optimized kernels use
  // the stored reciprocals (§IV.B).
  Array3f rho;
  Array3f lam, mu;
  Array3f lami, mui;  // 1/λ, 1/μ

  // Attenuation state: one memory variable per stress component per cell,
  // plus the per-cell relaxation time and modulus-defect factors.
  Array3f rxx, ryy, rzz, rxy, rxz, ryz;
  Array3f tauSigma;   // relaxation time τ per cell [s]
  Array3f qsInv;      // 2/Qs factor per cell (0 disables)
  Array3f qpInv;      // 2/Qp factor per cell

  [[nodiscard]] Array3f& field(FieldId f);
  [[nodiscard]] const Array3f& field(FieldId f) const;

  // --- Material loading ----------------------------------------------------
  // Fill the interior from a partitioned mesh block (dims must match), then
  // derive lam/mu/reciprocals and attenuation factors (Qs = 50 Vs etc.).
  // Halo cells are clamp-filled from the nearest interior cell; interior
  // rank boundaries should afterwards be fixed up with a halo exchange of
  // the material arrays.
  void setMaterial(const mesh::MeshBlock& block);
  void setUniformMaterial(const vmodel::Material& m);

  // Maximum stable time step for this grid's material (CFL of the 4th-order
  // staggered scheme, with a 0.45 safety factor).
  [[nodiscard]] double stableDt() const;
  [[nodiscard]] double maxVp() const;

  // --- Checkpoint support ---------------------------------------------------
  // Serialize / restore all time-dependent state (wavefields + memory
  // variables). Material is excluded: it is re-derivable from the mesh.
  [[nodiscard]] std::vector<std::byte> saveState() const;
  void restoreState(std::span<const std::byte> state);
  [[nodiscard]] std::size_t stateBytes() const;  // saveState().size()

  // Energy-like norm of the velocity field (for tests and absorbing
  // boundary quality measurements): sum of rho * |v|^2 over the interior.
  [[nodiscard]] double kineticEnergy() const;

 private:
  void deriveModuli();
  void clampFillMaterialHalo();

  GridDims dims_;
  double h_;
  double dt_;
  AttenuationConfig attenuation_;
};

}  // namespace awp::grid
