#include "grid/staggered_grid.hpp"

#include <cmath>
#include <cstring>
#include <string>

#include "util/error.hpp"

namespace awp::grid {

StaggeredGrid::StaggeredGrid(GridDims dims, double h, double dt,
                             AttenuationConfig attenuation)
    : dims_(dims), h_(h), dt_(dt), attenuation_(attenuation) {
  AWP_CHECK(dims.nx >= 1 && dims.ny >= 1 && dims.nz >= 1);
  AWP_CHECK(h > 0.0 && dt > 0.0);
  const std::size_t ax = sx(), ay = sy(), az = sz();
  for (Array3f* f : {&u, &v, &w, &xx, &yy, &zz, &xy, &xz, &yz, &rho, &lam,
                     &mu, &lami, &mui})
    f->resize(ax, ay, az);
  if (attenuation_.enabled) {
    for (Array3f* f :
         {&rxx, &ryy, &rzz, &rxy, &rxz, &ryz, &tauSigma, &qsInv, &qpInv})
      f->resize(ax, ay, az);
    // Coarse-grained relaxation times: position (i%2, j%2, k%2) selects one
    // of 8 log-spaced values across the target frequency band.
    const double tauMin = 1.0 / (2.0 * M_PI * attenuation_.fMax);
    const double tauMax = 1.0 / (2.0 * M_PI * attenuation_.fMin);
    for (std::size_t k = 0; k < az; ++k)
      for (std::size_t j = 0; j < ay; ++j)
        for (std::size_t i = 0; i < ax; ++i) {
          const int m = static_cast<int>(i % 2) + 2 * static_cast<int>(j % 2) +
                        4 * static_cast<int>(k % 2);
          tauSigma(i, j, k) = static_cast<float>(
              tauMin * std::pow(tauMax / tauMin, m / 7.0));
        }
  }
}

void StaggeredGrid::setDt(double dt) {
  AWP_CHECK_MSG(dt > 0.0, "dt must be positive");
  dt_ = dt;
}

Array3f& StaggeredGrid::field(FieldId f) {
  switch (f) {
    case FieldId::U:
      return u;
    case FieldId::V:
      return v;
    case FieldId::W:
      return w;
    case FieldId::XX:
      return xx;
    case FieldId::YY:
      return yy;
    case FieldId::ZZ:
      return zz;
    case FieldId::XY:
      return xy;
    case FieldId::XZ:
      return xz;
    case FieldId::YZ:
      return yz;
    case FieldId::kCount:
      break;
  }
  throw Error("bad field id");
}

const Array3f& StaggeredGrid::field(FieldId f) const {
  return const_cast<StaggeredGrid*>(this)->field(f);
}

void StaggeredGrid::setUniformMaterial(const vmodel::Material& m) {
  if (const char* issue = vmodel::materialIssue(m))
    throw Error(std::string("bad uniform material: ") + issue +
                " (vp=" + std::to_string(m.vp) + " vs=" +
                std::to_string(m.vs) + " rho=" + std::to_string(m.rho) + ")");
  rho.fill(m.rho);
  const auto muV = static_cast<float>(vmodel::muOf(m));
  const auto lamV = static_cast<float>(vmodel::lambdaOf(m));
  mu.fill(muV);
  lam.fill(lamV);
  deriveModuli();
  if (attenuation_.enabled) {
    qsInv.fill(static_cast<float>(2.0 / vmodel::qsOf(m.vs)));
    qpInv.fill(static_cast<float>(2.0 / vmodel::qpOf(m.vs)));
  }
}

void StaggeredGrid::setMaterial(const mesh::MeshBlock& block) {
  AWP_CHECK_MSG(block.spec.x.count() == dims_.nx &&
                    block.spec.y.count() == dims_.ny &&
                    block.spec.z.count() == dims_.nz,
                "mesh block dimensions do not match grid dims");
  // The mesh stores k as depth slices (k = 0 at the surface); the grid
  // stores k increasing upward (surface at the top interior plane).
  for (std::size_t k = 0; k < dims_.nz; ++k) {
    const std::size_t meshK = dims_.nz - 1 - k;
    for (std::size_t j = 0; j < dims_.ny; ++j)
      for (std::size_t i = 0; i < dims_.nx; ++i) {
        const vmodel::Material& m = block.at(i, j, meshK);
        if (const char* issue = vmodel::materialIssue(m))
          throw Error(std::string("bad material: ") + issue +
                      " at mesh cell (" + std::to_string(i) + ", " +
                      std::to_string(j) + ", " + std::to_string(meshK) +
                      "): vp=" + std::to_string(m.vp) + " vs=" +
                      std::to_string(m.vs) + " rho=" + std::to_string(m.rho));
        const std::size_t gi = i + kHalo, gj = j + kHalo, gk = k + kHalo;
        rho(gi, gj, gk) = m.rho;
        mu(gi, gj, gk) = static_cast<float>(vmodel::muOf(m));
        lam(gi, gj, gk) = static_cast<float>(vmodel::lambdaOf(m));
        if (attenuation_.enabled) {
          qsInv(gi, gj, gk) =
              static_cast<float>(2.0 / vmodel::qsOf(m.vs));
          qpInv(gi, gj, gk) =
              static_cast<float>(2.0 / vmodel::qpOf(m.vs));
        }
      }
  }
  clampFillMaterialHalo();
  deriveModuli();
}

void StaggeredGrid::clampFillMaterialHalo() {
  auto clampFill = [&](Array3f& f) {
    const std::size_t ax = sx(), ay = sy(), az = sz();
    auto clampIdx = [](std::size_t v, std::size_t n) {
      const std::size_t lo = kHalo, hi = kHalo + n - 1;
      return v < lo ? lo : (v > hi ? hi : v);
    };
    for (std::size_t k = 0; k < az; ++k)
      for (std::size_t j = 0; j < ay; ++j)
        for (std::size_t i = 0; i < ax; ++i) {
          const std::size_t ci = clampIdx(i, dims_.nx);
          const std::size_t cj = clampIdx(j, dims_.ny);
          const std::size_t ck = clampIdx(k, dims_.nz);
          if (ci != i || cj != j || ck != k) f(i, j, k) = f(ci, cj, ck);
        }
  };
  clampFill(rho);
  clampFill(mu);
  clampFill(lam);
  if (attenuation_.enabled) {
    clampFill(qsInv);
    clampFill(qpInv);
  }
}

void StaggeredGrid::deriveModuli() {
  for (std::size_t n = 0; n < mu.size(); ++n) {
    mui.data()[n] = mu.data()[n] > 0.0f ? 1.0f / mu.data()[n] : 0.0f;
    lami.data()[n] = lam.data()[n] > 0.0f ? 1.0f / lam.data()[n] : 0.0f;
  }
}

double StaggeredGrid::maxVp() const {
  double vpMax = 0.0;
  for (std::size_t n = 0; n < rho.size(); ++n) {
    const double r = rho.data()[n];
    if (r <= 0.0) continue;
    const double vp2 = (lam.data()[n] + 2.0 * mu.data()[n]) / r;
    vpMax = std::max(vpMax, vp2);
  }
  return std::sqrt(vpMax);
}

double StaggeredGrid::stableDt() const {
  // 4th-order staggered CFL: dt <= h / (vp * sqrt(3) * (|c1| + |c2|)),
  // with |c1| + |c2| = 9/8 + 1/24 = 7/6; a 0.45/0.495 safety margin.
  const double vp = maxVp();
  AWP_CHECK_MSG(vp > 0.0, "material not set");
  return 0.45 * h_ / vp;
}

std::vector<std::byte> StaggeredGrid::saveState() const {
  std::vector<const Array3f*> fields = {&u,  &v,  &w,  &xx, &yy,
                                        &zz, &xy, &xz, &yz};
  if (attenuation_.enabled)
    for (const Array3f* f : {&rxx, &ryy, &rzz, &rxy, &rxz, &ryz})
      fields.push_back(f);
  std::vector<std::byte> out(stateBytes());
  std::size_t at = 0;
  for (const auto* f : fields) {
    std::memcpy(out.data() + at, f->data(), f->size() * sizeof(float));
    at += f->size() * sizeof(float);
  }
  return out;
}

void StaggeredGrid::restoreState(std::span<const std::byte> state) {
  std::vector<Array3f*> fields = {&u, &v, &w, &xx, &yy, &zz, &xy, &xz, &yz};
  if (attenuation_.enabled)
    for (Array3f* f : {&rxx, &ryy, &rzz, &rxy, &rxz, &ryz}) fields.push_back(f);
  AWP_CHECK_MSG(state.size() == stateBytes(),
                "checkpoint state size mismatch");
  std::size_t at = 0;
  for (auto* f : fields) {
    std::memcpy(f->data(), state.data() + at, f->size() * sizeof(float));
    at += f->size() * sizeof(float);
  }
}

std::size_t StaggeredGrid::stateBytes() const {
  // Nine wavefields plus, under attenuation, six memory variables; every
  // field has the same halo-padded extent.
  return (attenuation_.enabled ? 15 : 9) * u.size() * sizeof(float);
}

double StaggeredGrid::kineticEnergy() const {
  double e = 0.0;
  for (std::size_t k = kHalo; k < kHalo + dims_.nz; ++k)
    for (std::size_t j = kHalo; j < kHalo + dims_.ny; ++j)
      for (std::size_t i = kHalo; i < kHalo + dims_.nx; ++i) {
        const double vx = u(i, j, k), vy = v(i, j, k), vz = w(i, j, k);
        e += rho(i, j, k) * (vx * vx + vy * vy + vz * vz);
      }
  return 0.5 * e * h_ * h_ * h_;
}

}  // namespace awp::grid
