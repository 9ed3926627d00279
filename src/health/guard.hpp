#pragma once
// HealthGuard: the per-rank façade that ties the three layers together for
// the solver — preflight before step 0, the in-loop monitor with its
// cluster-wide verdict combine, heartbeat publishing for the watchdog, a
// bounded rollback budget, and the structured event trail / diagnostic
// dump that makes an unattended failure actionable (offending rank, step,
// field, local index, peak-velocity history).
//
// The guard itself never touches the checkpoint store or the grid's dt:
// the solver owns the rollback mechanics (restore + CFL tightening) and
// reports them back via noteRollback(), keeping this layer free of a
// dependency on core.

#include <cstddef>
#include <string>
#include <vector>

#include "health/monitor.hpp"
#include "health/preflight.hpp"
#include "health/verdict.hpp"
#include "health/watchdog.hpp"
#include "vcluster/comm.hpp"

namespace awp::health {

struct HealthConfig {
  bool enabled = false;
  MonitorConfig monitor;
  PreflightLimits limits;
  int maxRollbacks = 3;          // blow-up recoveries before aborting
  double dtTighten = 0.5;        // dt multiplier applied on each rollback
  // Adaptive re-widening: after this many consecutive Healthy scans on a
  // tightened dt, walk dt back toward the CFL-derived value by dtRewiden
  // per event (never past the baseline). 0 disables re-widening.
  int dtRewidenWindow = 0;
  double dtRewiden = 2.0;        // dt multiplier per re-widen event
  HeartbeatBoard* heartbeats = nullptr;  // optional shared board
};

enum class EventKind {
  Preflight,
  Scan,             // a monitor scan with a non-Healthy verdict
  Rollback,         // restored a checkpoint generation, tightened dt
  DtRewiden,        // walked dt back after a streak of Healthy scans
  CheckpointVeto,   // refused to persist a non-finite state
  Abort,            // rollback budget exhausted / nothing to restore
};

const char* toString(EventKind kind);

struct HealthEvent {
  EventKind kind = EventKind::Scan;
  std::size_t step = 0;
  Verdict verdict = Verdict::Healthy;
  int offenderRank = -1;  // cluster-wide offender, -1 if none/local event
  std::string detail;
};

// Cluster-combined outcome of one monitor interval.
struct ClusterVerdict {
  Verdict verdict = Verdict::Healthy;
  int offenderRank = -1;       // worst rank (lowest id on ties)
  std::string offenderDetail;  // offender's finding, known on every rank
  ScanResult local;
};

class HealthGuard {
 public:
  explicit HealthGuard(const HealthConfig& config);

  [[nodiscard]] const HealthConfig& config() const { return config_; }
  [[nodiscard]] FieldMonitor& monitor() { return monitor_; }

  // Collective; throws awp::Error on every rank when any rank is Fatal.
  PreflightReport preflight(vcluster::Communicator& comm,
                            const PreflightContext& ctx);

  [[nodiscard]] bool scanDue(std::size_t step) const {
    return monitor_.due(step);
  }

  // Collective: local scan + allreduce(Max) of the verdicts + broadcast of
  // the offender's diagnostic, so every rank can produce the same dump.
  ClusterVerdict evaluate(vcluster::Communicator& comm,
                          const grid::StaggeredGrid& grid, std::size_t step);

  // Rollback bookkeeping (the solver performs the actual restore).
  [[nodiscard]] int rollbacksUsed() const { return rollbacksUsed_; }
  [[nodiscard]] bool rollbackBudgetLeft() const {
    return rollbacksUsed_ < config_.maxRollbacks;
  }
  void noteRollback(std::size_t fromStep, std::size_t toStep, double newDt);
  void noteCheckpointVeto(std::size_t step);

  // Adaptive dt re-widening. The Healthy streak is fed by evaluate() —
  // verdicts are cluster-combined there, so every rank tracks the same
  // streak and rewidenDue() answers identically cluster-wide. The solver
  // performs the actual dt change and reports it back via noteRewiden()
  // (which restarts the streak, spacing successive re-widen events).
  [[nodiscard]] bool rewidenDue() const {
    return config_.dtRewidenWindow > 0 &&
           consecutiveHealthy_ >= config_.dtRewidenWindow;
  }
  [[nodiscard]] int consecutiveHealthyScans() const {
    return consecutiveHealthy_;
  }
  void noteRewiden(std::size_t step, double newDt);

  // Publish a heartbeat if a board is attached (no-op otherwise).
  void beat(int rank, std::size_t step);

  // Record the abort event and build the structured diagnostic dump.
  [[nodiscard]] std::string abortDump(const ClusterVerdict& cv,
                                      std::size_t step);

  [[nodiscard]] const std::vector<HealthEvent>& events() const {
    return events_;
  }

 private:
  HealthConfig config_;
  FieldMonitor monitor_;
  int rollbacksUsed_ = 0;
  int consecutiveHealthy_ = 0;
  std::vector<HealthEvent> events_;
};

}  // namespace awp::health
