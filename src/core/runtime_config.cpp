#include "core/runtime_config.hpp"

#include <algorithm>
#include <sstream>

#include "io/shared_file.hpp"
#include "perfmodel/machine.hpp"
#include "util/error.hpp"

namespace awp::core {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

[[noreturn]] void fail(int line, const std::string& what) {
  throw Error("runtime config line " + std::to_string(line) + ": " + what);
}

bool parseSwitch(const std::string& v, int line) {
  if (v == "on" || v == "true" || v == "1") return true;
  if (v == "off" || v == "false" || v == "0") return false;
  fail(line, "expected on/off, got '" + v + "'");
}

int parseInt(const std::string& v, int line) {
  try {
    std::size_t used = 0;
    const int n = std::stoi(v, &used);
    if (used != v.size()) throw std::invalid_argument(v);
    return n;
  } catch (const std::exception&) {
    fail(line, "expected an integer, got '" + v + "'");
  }
}

double parseDouble(const std::string& v, int line) {
  try {
    std::size_t used = 0;
    const double d = std::stod(v, &used);
    if (used != v.size()) throw std::invalid_argument(v);
    return d;
  } catch (const std::exception&) {
    fail(line, "expected a number, got '" + v + "'");
  }
}

}  // namespace

RuntimeConfig parseRuntimeConfig(const std::string& text,
                                 const RuntimeConfig& defaults) {
  RuntimeConfig config = defaults;
  std::istringstream in(text);
  std::string rawLine;
  int lineNo = 0;
  while (std::getline(in, rawLine)) {
    ++lineNo;
    const auto comment = rawLine.find('#');
    std::string line = trim(comment == std::string::npos
                                ? rawLine
                                : rawLine.substr(0, comment));
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos) fail(lineNo, "expected key = value");
    const std::string key = trim(line.substr(0, eq));
    // Values are case-folded for enum/switch keys; path-valued keys use
    // the raw spelling (filesystems are case-sensitive).
    const std::string rawValue = trim(line.substr(eq + 1));
    std::string value = rawValue;
    std::transform(value.begin(), value.end(), value.begin(), ::tolower);

    auto& s = config.solver;
    if (key == "comm") {
      if (value == "async")
        s.commMode = grid::HaloExchanger::Mode::Asynchronous;
      else if (value == "sync")
        s.commMode = grid::HaloExchanger::Mode::Synchronous;
      else
        fail(lineNo, "comm must be async or sync");
    } else if (key == "reduced_comm") {
      s.reducedComm = parseSwitch(value, lineNo);
    } else if (key == "overlap") {
      s.overlap = parseSwitch(value, lineNo);
    } else if (key == "cache_block") {
      if (value == "off") {
        s.kernels.cacheBlocked = false;
      } else {
        const auto x = value.find('x');
        if (x == std::string::npos)
          fail(lineNo, "cache_block must be off or <kblock>x<jblock>");
        s.kernels.cacheBlocked = true;
        s.kernels.kblock = parseInt(value.substr(0, x), lineNo);
        s.kernels.jblock = parseInt(value.substr(x + 1), lineNo);
        if (s.kernels.kblock <= 0 || s.kernels.jblock <= 0)
          fail(lineNo, "blocking factors must be positive");
      }
    } else if (key == "unroll") {
      s.kernels.unrolled = parseSwitch(value, lineNo);
    } else if (key == "reciprocals") {
      s.kernels.useReciprocals = parseSwitch(value, lineNo);
    } else if (key == "hybrid_threads") {
      s.hybridThreads = parseInt(value, lineNo);
      if (s.hybridThreads < 1) fail(lineNo, "hybrid_threads must be >= 1");
    } else if (key == "absorbing") {
      if (value == "sponge") s.absorbing = AbsorbingType::Sponge;
      else if (value == "pml") s.absorbing = AbsorbingType::Pml;
      else if (value == "none") s.absorbing = AbsorbingType::None;
      else fail(lineNo, "absorbing must be sponge, pml or none");
    } else if (key == "sponge_width") {
      s.spongeWidth = parseInt(value, lineNo);
    } else if (key == "pml_width") {
      s.pml.width = parseInt(value, lineNo);
    } else if (key == "free_surface") {
      s.freeSurface = parseSwitch(value, lineNo);
    } else if (key == "attenuation") {
      s.attenuation.enabled = parseSwitch(value, lineNo);
    } else if (key == "dt") {
      s.dt = parseDouble(value, lineNo);
    } else if (key == "output_sample_steps") {
      config.output.sampleEverySteps = parseInt(value, lineNo);
      if (config.output.sampleEverySteps < 1)
        fail(lineNo, "output_sample_steps must be >= 1");
    } else if (key == "output_decimation") {
      config.output.spatialDecimation = parseInt(value, lineNo);
      if (config.output.spatialDecimation < 1)
        fail(lineNo, "output_decimation must be >= 1");
    } else if (key == "output_aggregate") {
      config.output.flushEverySamples = parseInt(value, lineNo);
      if (config.output.flushEverySamples < 1)
        fail(lineNo, "output_aggregate must be >= 1");
    } else if (key == "mesh_io") {
      if (value == "prepartitioned") config.meshIo = MeshIoMode::PrePartitioned;
      else if (value == "ondemand") config.meshIo = MeshIoMode::OnDemand;
      else if (value == "direct") config.meshIo = MeshIoMode::Direct;
      else fail(lineNo, "mesh_io must be prepartitioned, ondemand or direct");
    } else if (key == "checksums") {
      config.checksums = parseSwitch(value, lineNo);
    } else if (key == "health") {
      s.health.enabled = parseSwitch(value, lineNo);
    } else if (key == "health_interval") {
      s.health.monitor.everySteps = parseInt(value, lineNo);
      if (s.health.monitor.everySteps < 1)
        fail(lineNo, "health_interval must be >= 1");
    } else if (key == "health_max_rollbacks") {
      s.health.maxRollbacks = parseInt(value, lineNo);
      if (s.health.maxRollbacks < 0)
        fail(lineNo, "health_max_rollbacks must be >= 0");
    } else if (key == "health_dt_tighten") {
      s.health.dtTighten = parseDouble(value, lineNo);
      if (s.health.dtTighten <= 0.0 || s.health.dtTighten >= 1.0)
        fail(lineNo, "health_dt_tighten must be in (0, 1)");
    } else if (key == "health_growth_limit") {
      s.health.monitor.growthLimit = parseDouble(value, lineNo);
      if (s.health.monitor.growthLimit <= 1.0)
        fail(lineNo, "health_growth_limit must be > 1");
    } else if (key == "health_dt_rewiden_window") {
      s.health.dtRewidenWindow = parseInt(value, lineNo);
      if (s.health.dtRewidenWindow < 0)
        fail(lineNo, "health_dt_rewiden_window must be >= 0");
    } else if (key == "health_dt_rewiden") {
      s.health.dtRewiden = parseDouble(value, lineNo);
      if (s.health.dtRewiden <= 1.0)
        fail(lineNo, "health_dt_rewiden must be > 1");
    } else if (key == "telemetry_interval") {
      s.telemetry.reportEverySteps = parseInt(value, lineNo);
      if (s.telemetry.reportEverySteps < 0)
        fail(lineNo, "telemetry_interval must be >= 0");
    } else if (key == "telemetry_report") {
      s.telemetry.reportPath = rawValue;
    } else if (key == "telemetry_trace") {
      s.telemetry.tracePathPrefix = rawValue;
    } else if (key == "telemetry_chrome") {
      s.telemetry.chromeTracePath = rawValue;
    } else {
      fail(lineNo, "unknown key '" + key + "'");
    }
  }
  return config;
}

RuntimeConfig loadRuntimeConfig(const std::string& path,
                                const RuntimeConfig& defaults) {
  return parseRuntimeConfig(io::readTextFile(path), defaults);
}

RuntimeConfig defaultsForMachine(const std::string& machineName) {
  const auto& machine = perfmodel::machineByName(machineName);
  RuntimeConfig config;
  auto& s = config.solver;
  // NUMA machines need the asynchronous redesign (§IV.A); single-socket
  // torus machines tolerate the synchronous model but async never hurts.
  s.commMode = grid::HaloExchanger::Mode::Asynchronous;
  s.reducedComm = true;
  s.kernels.useReciprocals = true;
  // Cache blocking tuned for the deep cache hierarchies of the Opteron
  // machines; the BG PowerPCs with small L1 prefer smaller tiles.
  s.kernels.cacheBlocked = true;
  if (machine.name == "BGW" || machine.name == "Intrepid") {
    s.kernels.kblock = 8;
    s.kernels.jblock = 4;
  } else {
    s.kernels.kblock = 16;
    s.kernels.jblock = 8;
  }
  s.kernels.unrolled = true;
  // Overlap paid off on mid-scale XT5/Ranger runs (§IV.C) but was dropped
  // for full-scale Jaguar production.
  s.overlap = machine.name == "Ranger";
  // Lustre (XT5) machines read pre-partitioned input well when throttled;
  // the GPFS/BG machines favor the collective on-demand model (§III.C).
  config.meshIo = (machine.name == "BGW" || machine.name == "Intrepid")
                      ? MeshIoMode::OnDemand
                      : MeshIoMode::PrePartitioned;
  return config;
}

}  // namespace awp::core
