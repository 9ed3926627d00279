#include "grid/halo.hpp"

#include <algorithm>
#include <span>

#include "telemetry/registry.hpp"
#include "util/error.hpp"
#include "util/hot.hpp"

namespace awp::grid {

namespace {

struct Interior {
  std::size_t nx, ny, nz;
};

Interior interiorOf(const Array3f& f) {
  return Interior{f.nx() - 2 * kHalo, f.ny() - 2 * kHalo,
                  f.nz() - 2 * kHalo};
}

// Number of floats in `count` exchange planes along `axis`.
std::size_t planeFloats(const Interior& in, int axis, int count) {
  switch (axis) {
    case 0:
      return static_cast<std::size_t>(count) * in.ny * in.nz;
    case 1:
      return static_cast<std::size_t>(count) * in.nx * in.nz;
    default:
      return static_cast<std::size_t>(count) * in.nx * in.ny;
  }
}

// The `count` planes from raw index `start` along `axis`, over the interior
// cross-section of the other two axes, as raw [lo, hi) index ranges. Only
// that cross-section is exchanged: the stencils never read halo corners or
// edges (all derivatives are axis-aligned), so faces are sufficient.
struct Face {
  std::size_t i0, i1, j0, j1, k0, k1;
};

Face faceOf(const Interior& in, int axis, std::size_t start, int count) {
  Face b{kHalo, kHalo + in.nx, kHalo, kHalo + in.ny, kHalo, kHalo + in.nz};
  const std::size_t end = start + static_cast<std::size_t>(count);
  switch (axis) {
    case 0:
      b.i0 = start, b.i1 = end;
      break;
    case 1:
      b.j0 = start, b.j1 = end;
      break;
    default:
      b.k0 = start, b.k1 = end;
      break;
  }
  return b;
}

// Pack the face into buf, k-major then j, one contiguous x run at a time.
// The caller must have sized buf to planeFloats() already (the exchanger
// stages through persistent scratch, so this path never allocates).
AWP_HOT void pack(const Array3f& f, int axis, std::size_t start, int count,
                  std::span<float> buf) {
  const Interior in = interiorOf(f);
  // awplint: hot-ok(size assert runs once per message, outside the copy loops; fires only on a caller bug)
  AWP_CHECK(buf.size() == planeFloats(in, axis, count));
  const Face b = faceOf(in, axis, start, count);
  const std::size_t len = b.i1 - b.i0;
  float* out = buf.data();
  for (std::size_t k = b.k0; k < b.k1; ++k)
    for (std::size_t j = b.j0; j < b.j1; ++j) {
      const float* run = &f(b.i0, j, k);
      out = std::copy(run, run + len, out);
    }
}

// The inverse of pack: the same runs in the same order.
AWP_HOT void unpack(Array3f& f, int axis, std::size_t start, int count,
                    std::span<const float> buf) {
  const Interior in = interiorOf(f);
  // awplint: hot-ok(size assert runs once per message, outside the copy loops; fires only on a caller bug)
  AWP_CHECK(buf.size() == planeFloats(in, axis, count));
  const Face b = faceOf(in, axis, start, count);
  const std::size_t len = b.i1 - b.i0;
  const float* run = buf.data();
  for (std::size_t k = b.k0; k < b.k1; ++k)
    for (std::size_t j = b.j0; j < b.j1; ++j, run += len)
      std::copy(run, run + len, &f(b.i0, j, k));
}

std::size_t interiorExtent(const Interior& in, int axis) {
  return axis == 0 ? in.nx : (axis == 1 ? in.ny : in.nz);
}

}  // namespace

HaloExchanger::HaloExchanger(vcluster::Communicator& comm,
                             const vcluster::CartTopology& topo, Mode mode,
                             bool reduced)
    : comm_(comm), topo_(topo), mode_(mode), reduced_(reduced) {
  AWP_CHECK(comm.size() == topo.size());
}

int HaloExchanger::tagFor(int fieldSlot, int axis, int dir) const {
  // Unique per (exchange call, field, axis, direction): the asynchronous
  // model's "unique tagging to avoid source/destination ambiguity".
  return (seq_ & 0xFFFF) * 128 + fieldSlot * 8 + axis * 2 + (dir > 0 ? 1 : 0);
}

void HaloExchanger::sendOne(Array3f& f, const AxisNeed& need, int axis,
                            int dir, int tag) {
  const int neighbor = topo_.neighbor(comm_.rank(), axis, dir);
  if (neighbor < 0) return;
  // To the minus neighbor we send the planes it needs on its plus side
  // (need.plus of our bottom interior); symmetrically for plus.
  const int count = dir < 0 ? need.plus : need.minus;
  if (count == 0) return;
  const Interior in = interiorOf(f);
  const std::size_t start =
      dir < 0 ? kHalo
              : kHalo + interiorExtent(in, axis) -
                    static_cast<std::size_t>(count);
  sendScratch_.resize(planeFloats(in, axis, count));
  const std::span<float> buf(sendScratch_);
  {
    telemetry::ScopedSpan span(telemetry::Phase::HaloPack);
    pack(f, axis, start, count, buf);
  }
  comm_.sendSpan<float>(neighbor, tag, buf);
  ++stats_.messages;
  stats_.bytes += buf.size() * sizeof(float);
  stats_.planes += static_cast<std::uint64_t>(count);
  telemetry::count(telemetry::Counter::HaloMessages);
  telemetry::count(telemetry::Counter::HaloBytesSent,
                   buf.size() * sizeof(float));
}

void HaloExchanger::recvOne(Array3f& f, const AxisNeed& need, int axis,
                            int dir, int tag) {
  const int neighbor = topo_.neighbor(comm_.rank(), axis, dir);
  if (neighbor < 0) return;
  const int count = dir < 0 ? need.minus : need.plus;
  if (count == 0) return;
  const Interior in = interiorOf(f);
  const std::size_t start =
      dir < 0 ? kHalo - static_cast<std::size_t>(count)
              : kHalo + interiorExtent(in, axis);
  recvScratch_.resize(planeFloats(in, axis, count));
  const std::span<float> buf(recvScratch_);
  comm_.recvSpan<float>(neighbor, tag, buf);
  telemetry::count(telemetry::Counter::HaloBytesReceived,
                   buf.size() * sizeof(float));
  {
    telemetry::ScopedSpan span(telemetry::Phase::HaloUnpack);
    unpack(f, axis, start, count, buf);
  }
}

void HaloExchanger::runExchangeRaw(std::vector<Array3f*> fields,
                                   const std::vector<FieldNeed>& needs) {
  AWP_CHECK(fields.size() == needs.size());
  // Pack/unpack open nested spans, so this span's exclusive time is the
  // messaging itself: posting sends and blocking in receives.
  telemetry::ScopedSpan span(telemetry::Phase::HaloExchange);
  ++seq_;

  if (mode_ == Mode::Asynchronous) {
    // Post everything, then complete everything: out-of-order arrival is
    // handled by the unique tags.
    for (std::size_t s = 0; s < fields.size(); ++s)
      for (int axis = 0; axis < 3; ++axis)
        for (int dir : {-1, 1})
          sendOne(*fields[s], needs[s].axis(axis), axis, dir,
                  tagFor(static_cast<int>(s), axis, dir));
    for (std::size_t s = 0; s < fields.size(); ++s)
      for (int axis = 0; axis < 3; ++axis)
        for (int dir : {-1, 1}) {
          // Note the mirrored tag: a message sent toward dir arrives at a
          // rank receiving from -dir.
          recvOne(*fields[s], needs[s].axis(axis), axis, dir,
                  tagFor(static_cast<int>(s), axis, -dir));
        }
  } else {
    // Synchronous cascade: one axis at a time, a global barrier between
    // axes (the "redundant synchronization" the async redesign removed).
    for (int axis = 0; axis < 3; ++axis) {
      for (std::size_t s = 0; s < fields.size(); ++s)
        for (int dir : {-1, 1})
          sendOne(*fields[s], needs[s].axis(axis), axis, dir,
                  tagFor(static_cast<int>(s), axis, dir));
      for (std::size_t s = 0; s < fields.size(); ++s)
        for (int dir : {-1, 1})
          recvOne(*fields[s], needs[s].axis(axis), axis, dir,
                  tagFor(static_cast<int>(s), axis, -dir));
      comm_.barrier();
    }
  }
}

void HaloExchanger::runExchange(StaggeredGrid& g,
                                const std::vector<FieldId>& fields,
                                bool forceFull) {
  std::vector<Array3f*> arrays;
  std::vector<FieldNeed> needs;
  arrays.reserve(fields.size());
  needs.reserve(fields.size());
  for (FieldId f : fields) {
    arrays.push_back(&g.field(f));
    needs.push_back((reduced_ && !forceFull) ? reducedNeed(f) : fullNeed());
  }
  runExchangeRaw(std::move(arrays), needs);
}

void HaloExchanger::exchangeVelocities(StaggeredGrid& g) {
  runExchange(
      g, {FieldId::U, FieldId::V, FieldId::W}, /*forceFull=*/false);
}

void HaloExchanger::exchangeStresses(StaggeredGrid& g) {
  runExchange(g,
              {FieldId::XX, FieldId::YY, FieldId::ZZ, FieldId::XY,
               FieldId::XZ, FieldId::YZ},
              /*forceFull=*/false);
}

void HaloExchanger::exchangeMaterial(StaggeredGrid& g) {
  std::vector<Array3f*> arrays = {&g.rho, &g.lam, &g.mu, &g.lami, &g.mui};
  if (g.attenuation().enabled) {
    arrays.push_back(&g.qsInv);
    arrays.push_back(&g.qpInv);
  }
  std::vector<FieldNeed> needs(arrays.size(), fullNeed());
  runExchangeRaw(std::move(arrays), needs);
}

}  // namespace awp::grid
