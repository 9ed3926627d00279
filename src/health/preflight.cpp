#include "health/preflight.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"

namespace awp::health {

using grid::kHalo;

namespace {

// Bound the number of per-cell findings so a fully-broken block produces a
// readable report, not a million lines.
constexpr std::size_t kMaxMaterialIssues = 8;

void checkMaterial(const PreflightContext& ctx, PreflightReport& report) {
  const auto& g = *ctx.grid;
  const auto& d = g.dims();
  const auto& lim = ctx.limits;
  std::size_t flagged = 0;
  for (std::size_t k = kHalo; k < kHalo + d.nz; ++k)
    for (std::size_t j = kHalo; j < kHalo + d.ny; ++j)
      for (std::size_t i = kHalo; i < kHalo + d.nx; ++i) {
        const double rho = g.rho(i, j, k);
        const double mu = g.mu(i, j, k);
        const double lam = g.lam(i, j, k);
        Verdict sev = Verdict::Healthy;
        std::string what;
        if (!std::isfinite(rho) || !std::isfinite(mu) ||
            !std::isfinite(lam)) {
          sev = Verdict::Fatal;
          what = "non-finite material";
        } else if (rho <= 0.0 || mu <= 0.0) {
          sev = Verdict::Fatal;
          what = "non-positive rho or mu";
        } else {
          const double vs = std::sqrt(mu / rho);
          const double vp = std::sqrt((lam + 2.0 * mu) / rho);
          const double ratio = vp / vs;
          if (lam < 0.0 || ratio < lim.minVpVsRatio) {
            sev = Verdict::Fatal;
            what = "Vp/Vs = " + std::to_string(ratio) +
                   " below sqrt(2) (negative lambda)";
          } else if (vp > lim.maxVp) {
            sev = Verdict::Fatal;
            what = "Vp = " + std::to_string(vp) + " m/s unphysical";
          } else if (ratio > lim.maxVpVsRatio) {
            sev = Verdict::Degraded;
            what = "Vp/Vs = " + std::to_string(ratio) + " suspiciously high";
          } else if (rho < lim.minRho || rho > lim.maxRho) {
            sev = Verdict::Degraded;
            what = "rho = " + std::to_string(rho) + " kg/m^3 out of range";
          }
        }
        if (sev == Verdict::Healthy) continue;
        report.verdict = worse(report.verdict, sev);
        if (flagged++ < kMaxMaterialIssues) {
          std::ostringstream os;
          os << "material at local (" << i - kHalo << "," << j - kHalo << ","
             << k - kHalo << "): " << what;
          report.issues.push_back({sev, os.str()});
        }
      }
  if (flagged > kMaxMaterialIssues)
    report.issues.push_back(
        {report.verdict, std::to_string(flagged - kMaxMaterialIssues) +
                             " further material cells flagged"});
}

void checkStability(const PreflightContext& ctx, PreflightReport& report) {
  if (!(ctx.dt > 0.0) || !std::isfinite(ctx.dt)) {
    report.verdict = Verdict::Fatal;
    report.issues.push_back(
        {Verdict::Fatal, "dt = " + std::to_string(ctx.dt) + " not positive"});
    return;
  }
  // Only meaningful once the material is loaded; stableDt throws otherwise.
  const double local = ctx.grid->stableDt();
  if (ctx.dt > local * ctx.limits.cflSlack) {
    report.verdict = Verdict::Fatal;
    std::ostringstream os;
    os << "CFL violated: dt = " << ctx.dt << " s exceeds this rank's stable "
       << "limit " << local << " s (h = " << ctx.h << " m)";
    report.issues.push_back({Verdict::Fatal, os.str()});
  }
}

void checkBoundary(const PreflightContext& ctx, PreflightReport& report) {
  if (ctx.boundary == BoundaryKind::None || ctx.boundaryWidth <= 0) return;
  const auto w = static_cast<std::size_t>(ctx.boundaryWidth);
  const auto& g = ctx.globalDims;
  const char* name = ctx.boundary == BoundaryKind::Pml ? "PML" : "sponge";
  if (2 * w >= g.nx || 2 * w >= g.ny || w >= g.nz) {
    report.verdict = Verdict::Fatal;
    std::ostringstream os;
    os << name << " width " << w << " does not fit the global grid "
       << g.nx << "x" << g.ny << "x" << g.nz
       << " (opposing layers would overlap)";
    report.issues.push_back({Verdict::Fatal, os.str()});
    return;
  }
  // Per-rank extent: the sponge taper is a pure per-cell multiply driven by
  // global position, so a layer spanning ranks still works (Degraded: the
  // decomposition is suspicious). PML split-field zones hold private state
  // that is never halo-exchanged, so a zone must not cross a rank boundary:
  // width > a face rank's extent is Fatal.
  const auto& d = ctx.grid->dims();
  auto check = [&](bool touches, std::size_t extent, const char* face) {
    if (!touches || extent >= w) return;
    const Verdict sev = ctx.boundary == BoundaryKind::Pml ? Verdict::Fatal
                                                          : Verdict::Degraded;
    report.verdict = worse(report.verdict, sev);
    std::ostringstream os;
    os << name << " width " << w << " exceeds this rank's " << face
       << " extent " << extent
       << (sev == Verdict::Fatal ? " (split zones cannot span ranks)"
                                 : " (layer spans rank boundaries)");
    report.issues.push_back({sev, os.str()});
  };
  check(ctx.touchesXMin || ctx.touchesXMax, d.nx, "x");
  check(ctx.touchesYMin || ctx.touchesYMax, d.ny, "y");
  check(ctx.touchesBottom, d.nz, "z");
}

// Halo width vs subdomain extent on every partitioned axis. An extreme
// decomposition (many ranks on a short axis) can shave a rank's block below
// the ghost-layer depth: the planes it must send a neighbor would include
// cells it only receives from the opposite neighbor, so the exchange can
// never converge — Fatal. Below twice the halo width the minus- and
// plus-side source regions overlap: still well-defined, but the surface-to-
// volume ratio says the decomposition is pathological — Degraded. The
// verdict is combined across ranks by collectivePreflight, so one sliver
// rank (block remainders land on the low coordinates) fails everyone
// together instead of deadlocking the halo exchange.
void checkTopology(const PreflightContext& ctx, PreflightReport& report) {
  if (ctx.haloWidth == 0) return;  // caller provided no topology
  const auto& d = ctx.grid->dims();
  const std::size_t w = ctx.haloWidth;
  auto axis = [&](int parts, std::size_t extent, const char* name) {
    if (parts <= 1) return;  // unpartitioned: nothing exchanged this way
    if (extent < w) {
      report.verdict = Verdict::Fatal;
      std::ostringstream os;
      os << "decomposition too fine: this rank's " << name << " extent "
         << extent << " is below the halo width " << w << " (" << parts
         << "-way split along " << name
         << "; ghost planes sent to one neighbor would have to contain "
            "cells received from the other)";
      report.issues.push_back({Verdict::Fatal, os.str()});
    } else if (extent < 2 * w) {
      report.verdict = worse(report.verdict, Verdict::Degraded);
      std::ostringstream os;
      os << name << " extent " << extent << " is below twice the halo width "
         << w << " (" << parts << "-way split along " << name
         << "; exchange regions overlap — decomposition is extreme)";
      report.issues.push_back({Verdict::Degraded, os.str()});
    }
  };
  axis(ctx.decompX, d.nx, "x");
  axis(ctx.decompY, d.ny, "y");
  axis(ctx.decompZ, d.nz, "z");
}

void checkSources(const PreflightContext& ctx, PreflightReport& report) {
  const auto& g = ctx.globalDims;
  std::size_t outside = 0, truncated = 0;
  for (const auto& s : ctx.sources) {
    if (s.gi >= g.nx || s.gj >= g.ny || s.gk >= g.nz) ++outside;
    if (ctx.plannedSteps > 0 && s.steps > ctx.plannedSteps) ++truncated;
  }
  if (outside > 0) {
    report.verdict = Verdict::Fatal;
    report.issues.push_back(
        {Verdict::Fatal, std::to_string(outside) +
                             " source(s) outside the global grid (would be "
                             "silently dropped)"});
  }
  if (truncated > 0) {
    report.verdict = worse(report.verdict, Verdict::Degraded);
    report.issues.push_back(
        {Verdict::Degraded,
         std::to_string(truncated) + " source time-window(s) extend past the "
                                     "planned " +
             std::to_string(ctx.plannedSteps) + " steps (tail truncated)"});
  }
}

}  // namespace

PreflightReport runPreflight(const PreflightContext& ctx) {
  AWP_CHECK_MSG(ctx.grid != nullptr, "preflight needs a grid");
  PreflightReport report;
  checkMaterial(ctx, report);
  checkStability(ctx, report);
  checkBoundary(ctx, report);
  checkTopology(ctx, report);
  checkSources(ctx, report);
  return report;
}

PreflightReport collectivePreflight(vcluster::Communicator& comm,
                                    const PreflightContext& ctx) {
  const PreflightReport report = runPreflight(ctx);
  const auto verdicts = comm.allgather(encode(report.verdict));
  const Verdict cluster =
      decode(*std::max_element(verdicts.begin(), verdicts.end()));
  if (cluster != Verdict::Fatal) return report;

  std::ostringstream os;
  os << "preflight failed on rank " << comm.rank() << " [";
  for (int r = 0; r < comm.size(); ++r)
    os << (r > 0 ? " " : "") << "r" << r << "="
       << toString(decode(verdicts[static_cast<std::size_t>(r)]));
  os << "]";
  if (!report.issues.empty())
    os << ": " << describeIssues(report.issues);
  else
    os << ": this rank is clean; see the fatal rank(s) above";
  throw PreflightError(os.str());
}

// --- Rupture-solver preflight ---------------------------------------------

namespace {

void checkFrictionParams(const RupturePreflightContext& ctx,
                         PreflightReport& report) {
  auto fatal = [&](const std::string& text) {
    report.verdict = Verdict::Fatal;
    report.issues.push_back({Verdict::Fatal, text});
  };
  if (!std::isfinite(ctx.muS) || !std::isfinite(ctx.muD) ||
      !std::isfinite(ctx.dc) || !std::isfinite(ctx.dcSurface) ||
      !std::isfinite(ctx.cohesion)) {
    fatal("non-finite friction parameter");
    return;
  }
  if (ctx.muS < 0.0)
    fatal("static friction muS = " + std::to_string(ctx.muS) + " negative");
  if (ctx.muD < 0.0)
    fatal("dynamic friction muD = " + std::to_string(ctx.muD) + " negative");
  if (ctx.cohesion < 0.0)
    fatal("cohesion = " + std::to_string(ctx.cohesion) + " Pa negative");
  // A zero or negative slip-weakening distance makes the strength drop
  // instantaneous: the weakening integral (fracture energy) vanishes and
  // the rupture front becomes grid-dependent.
  if (!(ctx.dc > 0.0))
    fatal("slip-weakening distance dc = " + std::to_string(ctx.dc) +
          " m must be positive");
  if (!(ctx.dcSurface > 0.0))
    fatal("surface slip-weakening distance dcSurface = " +
          std::to_string(ctx.dcSurface) + " m must be positive");
  // Slip-strengthening (muD > muS) is not fatal — it arrests rupture — but
  // it is almost certainly a transposed pair.
  if (ctx.muD > ctx.muS) {
    report.verdict = worse(report.verdict, Verdict::Degraded);
    report.issues.push_back(
        {Verdict::Degraded, "muD = " + std::to_string(ctx.muD) +
                                " exceeds muS = " + std::to_string(ctx.muS) +
                                " (slip-strengthening fault cannot rupture)"});
  }
}

// Per-node checks; returns the number of locally supercritical nodes
// (initial shear above the static strength — the intended nucleation
// patch, when bounded).
std::size_t checkRuptureNodes(const RupturePreflightContext& ctx,
                              PreflightReport& report) {
  std::size_t supercritical = 0, flagged = 0;
  auto flag = [&](Verdict sev, const RuptureNode& n, const std::string& what) {
    report.verdict = worse(report.verdict, sev);
    if (flagged++ < kMaxMaterialIssues) {
      std::ostringstream os;
      os << "fault node (" << n.gi << "," << n.gk << ") at depth " << n.depth
         << " m: " << what;
      report.issues.push_back({sev, os.str()});
    }
  };
  for (const RuptureNode& n : ctx.nodes) {
    if (!std::isfinite(n.tau0) || !std::isfinite(n.sigmaN) ||
        !std::isfinite(n.depth)) {
      flag(Verdict::Fatal, n, "non-finite initial stress");
      continue;
    }
    if (n.sigmaN > 0.0) {
      flag(Verdict::Degraded, n,
           "tensile normal stress sigmaN = " + std::to_string(n.sigmaN) +
               " Pa (fault clamps to zero frictional strength)");
    }
    // Static strength with the unweakened (slip = 0) friction coefficient;
    // compression is negative sigmaN, matching
    // SlipWeakeningFriction::strength.
    const double strength =
        std::max(0.0, ctx.cohesion + ctx.muS * std::max(0.0, -n.sigmaN));
    if (n.tau0 > strength) ++supercritical;
  }
  if (flagged > kMaxMaterialIssues)
    report.issues.push_back(
        {report.verdict, std::to_string(flagged - kMaxMaterialIssues) +
                             " further fault nodes flagged"});
  return supercritical;
}

// The supercritical-fraction verdicts, shared by the local and collective
// paths (counts are cluster-wide in the collective path).
void judgeSupercritical(const RupturePreflightContext& ctx,
                        std::int64_t supercritical, std::int64_t total,
                        PreflightReport& report) {
  if (total <= 0) return;
  const double fraction =
      static_cast<double>(supercritical) / static_cast<double>(total);
  if (fraction > ctx.maxSupercriticalFraction) {
    report.verdict = Verdict::Fatal;
    std::ostringstream os;
    os << supercritical << " of " << total << " fault nodes ("
       << fraction * 100.0 << "%) start above static strength — exceeds the "
       << ctx.maxSupercriticalFraction * 100.0
       << "% nucleation-patch allowance (the whole fault would release at "
          "step 0)";
    report.issues.push_back({Verdict::Fatal, os.str()});
  } else if (supercritical == 0) {
    report.verdict = worse(report.verdict, Verdict::Degraded);
    report.issues.push_back(
        {Verdict::Degraded,
         "no fault node starts above static strength: rupture cannot "
         "nucleate (check the nucleation patch / nucExcess)"});
  }
}

}  // namespace

PreflightReport runRupturePreflight(const RupturePreflightContext& ctx,
                                    std::size_t* supercriticalLocal) {
  PreflightReport report;
  checkFrictionParams(ctx, report);
  const std::size_t supercritical = checkRuptureNodes(ctx, report);
  if (supercriticalLocal != nullptr) *supercriticalLocal = supercritical;
  return report;
}

PreflightReport collectiveRupturePreflight(
    vcluster::Communicator& comm, const RupturePreflightContext& ctx) {
  std::size_t supercriticalLocal = 0;
  PreflightReport report = runRupturePreflight(ctx, &supercriticalLocal);

  // Cluster-wide supercritical fraction: the fault is decomposed across
  // ranks, so the nucleation patch may live entirely on one rank — only
  // the global fraction is meaningful.
  const auto supercritical = comm.allreduce(
      static_cast<std::int64_t>(supercriticalLocal), vcluster::ReduceOp::Sum);
  const auto total =
      comm.allreduce(static_cast<std::int64_t>(ctx.nodes.size()),
                     vcluster::ReduceOp::Sum);
  judgeSupercritical(ctx, supercritical, total, report);

  const auto verdicts = comm.allgather(encode(report.verdict));
  const Verdict cluster =
      decode(*std::max_element(verdicts.begin(), verdicts.end()));
  if (cluster != Verdict::Fatal) return report;

  std::ostringstream os;
  os << "rupture preflight failed on rank " << comm.rank() << " [";
  for (int r = 0; r < comm.size(); ++r)
    os << (r > 0 ? " " : "") << "r" << r << "="
       << toString(decode(verdicts[static_cast<std::size_t>(r)]));
  os << "]";
  if (!report.issues.empty())
    os << ": " << describeIssues(report.issues);
  else
    os << ": this rank is clean; see the fatal rank(s) above";
  throw PreflightError(os.str());
}

}  // namespace awp::health
