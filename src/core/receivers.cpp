#include "core/receivers.hpp"

#include <cmath>
#include <cstring>

#include "util/error.hpp"

namespace awp::core {

using grid::kHalo;

void ReceiverSet::add(std::string name, std::size_t gi, std::size_t gj) {
  pending_.push_back({std::move(name), gi, gj});
}

void ReceiverSet::bind(const DomainGeometry& geom) {
  traces_.clear();
  li_.clear();
  lj_.clear();
  lk_.clear();
  if (!geom.touchesTop()) return;
  const std::size_t gkSurface = geom.global.nz - 1;
  for (const auto& p : pending_) {
    std::size_t li, lj, lk;
    if (geom.owns(p.gi, p.gj, gkSurface, li, lj, lk)) {
      SeismogramTrace t;
      t.name = p.name;
      t.gi = p.gi;
      t.gj = p.gj;
      traces_.push_back(std::move(t));
      li_.push_back(li);
      lj_.push_back(lj);
      lk_.push_back(lk);
    }
  }
}

void ReceiverSet::record(const grid::StaggeredGrid& g, std::size_t step) {
  if (!traces_.empty() && step < traces_.front().u.size())
    ++samplesRewritten_;
  for (std::size_t t = 0; t < traces_.size(); ++t) {
    SeismogramTrace& trace = traces_[t];
    // Defensive gap fill: recording is expected step-dense, but a skipped
    // step must not shift every later sample's time axis.
    if (step > trace.u.size()) {
      trace.u.resize(step, 0.0f);
      trace.v.resize(step, 0.0f);
      trace.w.resize(step, 0.0f);
    }
    const float u = g.u(li_[t], lj_[t], lk_[t]);
    const float v = g.v(li_[t], lj_[t], lk_[t]);
    const float w = g.w(li_[t], lj_[t], lk_[t]);
    if (step < trace.u.size()) {
      // Rollback replay revisiting a recorded step: overwrite in place.
      trace.u[step] = u;
      trace.v[step] = v;
      trace.w[step] = w;
    } else {
      trace.u.push_back(u);
      trace.v.push_back(v);
      trace.w.push_back(w);
    }
  }
}

namespace {

void putBytes(std::vector<std::byte>& out, const void* p, std::size_t n) {
  const auto* b = static_cast<const std::byte*>(p);
  out.insert(out.end(), b, b + n);
}

template <typename T>
void putValue(std::vector<std::byte>& out, const T& v) {
  putBytes(out, &v, sizeof(T));
}

template <typename T>
T getValue(const std::vector<std::byte>& in, std::size_t& at) {
  T v;
  AWP_CHECK(at + sizeof(T) <= in.size());
  std::memcpy(&v, in.data() + at, sizeof(T));
  at += sizeof(T);
  return v;
}

}  // namespace

std::vector<SeismogramTrace> ReceiverSet::gather(
    vcluster::Communicator& comm) const {
  std::vector<std::byte> payload;
  putValue<std::uint64_t>(payload, traces_.size());
  for (const auto& t : traces_) {
    putValue<std::uint64_t>(payload, t.name.size());
    putBytes(payload, t.name.data(), t.name.size());
    putValue<std::uint64_t>(payload, t.gi);
    putValue<std::uint64_t>(payload, t.gj);
    putValue<std::uint64_t>(payload, t.u.size());
    putBytes(payload, t.u.data(), t.u.size() * sizeof(float));
    putBytes(payload, t.v.data(), t.v.size() * sizeof(float));
    putBytes(payload, t.w.data(), t.w.size() * sizeof(float));
  }

  const auto gathered = comm.gatherBytes(0, payload);
  std::vector<SeismogramTrace> all;
  if (comm.rank() != 0) return all;

  for (const auto& blob : gathered) {
    std::size_t at = 0;
    const auto count = getValue<std::uint64_t>(blob, at);
    for (std::uint64_t n = 0; n < count; ++n) {
      SeismogramTrace t;
      const auto nameLen = getValue<std::uint64_t>(blob, at);
      t.name.assign(reinterpret_cast<const char*>(blob.data() + at),
                    nameLen);
      at += nameLen;
      t.gi = getValue<std::uint64_t>(blob, at);
      t.gj = getValue<std::uint64_t>(blob, at);
      const auto samples = getValue<std::uint64_t>(blob, at);
      auto readSeries = [&](std::vector<float>& dst) {
        dst.resize(samples);
        AWP_CHECK(at + samples * sizeof(float) <= blob.size());
        std::memcpy(dst.data(), blob.data() + at, samples * sizeof(float));
        at += samples * sizeof(float);
      };
      readSeries(t.u);
      readSeries(t.v);
      readSeries(t.w);
      all.push_back(std::move(t));
    }
  }
  return all;
}

SurfaceMonitor::SurfaceMonitor(const DomainGeometry& geom) : geom_(geom) {
  active_ = geom.touchesTop();
  if (active_) {
    const std::size_t n = geom.local.x.count() * geom.local.y.count();
    pgvh_.assign(n, 0.0f);
    pgv_.assign(n, 0.0f);
  }
}

void SurfaceMonitor::accumulate(const grid::StaggeredGrid& g) {
  if (!active_) return;
  const std::size_t T = kHalo + g.dims().nz - 1;
  const std::size_t nx = geom_.local.x.count();
  const std::size_t ny = geom_.local.y.count();
  for (std::size_t j = 0; j < ny; ++j)
    for (std::size_t i = 0; i < nx; ++i) {
      const float vx = g.u(i + kHalo, j + kHalo, T);
      const float vy = g.v(i + kHalo, j + kHalo, T);
      const float vz = g.w(i + kHalo, j + kHalo, T);
      const float h2 = vx * vx + vy * vy;
      const float a2 = h2 + vz * vz;
      float& ph = pgvh_[i + nx * j];
      float& pa = pgv_[i + nx * j];
      if (h2 > ph * ph) ph = std::sqrt(h2);
      if (a2 > pa * pa) pa = std::sqrt(a2);
    }
}

std::vector<float> SurfaceMonitor::gatherMap(
    vcluster::Communicator& comm, const std::vector<float>& local) const {
  // Payload: xb, xe, yb, ye, data (empty for non-surface ranks).
  std::vector<std::byte> payload;
  if (active_) {
    putValue<std::uint64_t>(payload, geom_.local.x.begin);
    putValue<std::uint64_t>(payload, geom_.local.x.end);
    putValue<std::uint64_t>(payload, geom_.local.y.begin);
    putValue<std::uint64_t>(payload, geom_.local.y.end);
    putBytes(payload, local.data(), local.size() * sizeof(float));
  }
  const auto gathered = comm.gatherBytes(0, payload);
  if (comm.rank() != 0) return {};

  std::vector<float> map(geom_.global.nx * geom_.global.ny, 0.0f);
  for (const auto& blob : gathered) {
    if (blob.empty()) continue;
    std::size_t at = 0;
    const auto xb = getValue<std::uint64_t>(blob, at);
    const auto xe = getValue<std::uint64_t>(blob, at);
    const auto yb = getValue<std::uint64_t>(blob, at);
    const auto ye = getValue<std::uint64_t>(blob, at);
    for (std::uint64_t j = yb; j < ye; ++j)
      for (std::uint64_t i = xb; i < xe; ++i) {
        float v;
        std::memcpy(&v, blob.data() + at, sizeof(float));
        at += sizeof(float);
        map[i + geom_.global.nx * j] = v;
      }
  }
  return map;
}

std::vector<float> SurfaceMonitor::gatherPgvh(
    vcluster::Communicator& comm) const {
  return gatherMap(comm, pgvh_);
}

std::vector<float> SurfaceMonitor::gatherPgv(
    vcluster::Communicator& comm) const {
  return gatherMap(comm, pgv_);
}

}  // namespace awp::core
