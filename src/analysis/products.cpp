#include "analysis/products.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "io/shared_file.hpp"
#include "util/error.hpp"

namespace awp::analysis {

double writePgm(const std::vector<float>& map, std::size_t nx,
                std::size_t ny, const std::string& path, double gamma) {
  AWP_CHECK(map.size() == nx * ny);
  AWP_CHECK(gamma > 0.0);
  float peak = 0.0f;
  for (float v : map) peak = std::max(peak, v);

  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot write '" + path + "'");
  out << "P5\n" << nx << " " << ny << "\n255\n";
  std::vector<unsigned char> row(nx);
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const double f =
          peak > 0.0f ? map[i + nx * j] / static_cast<double>(peak) : 0.0;
      row[i] = static_cast<unsigned char>(
          std::lround(255.0 * std::pow(std::clamp(f, 0.0, 1.0), gamma)));
    }
    out.write(reinterpret_cast<const char*>(row.data()),
              static_cast<std::streamsize>(row.size()));
  }
  return peak;
}

std::vector<float> readSurfaceSnapshot(const std::string& path,
                                       const core::SurfaceLayout& layout,
                                       std::size_t sample) {
  io::SharedFile file(path, io::SharedFile::Mode::Read);
  AWP_CHECK_MSG(sample < layout.sampleCount(file.size()),
                "sample index beyond the end of the surface file");

  std::vector<float> record(layout.stepFloats());
  file.readAt(sample * layout.stepFloats() * sizeof(float),
              std::span<float>(record));
  std::vector<float> magnitude(record.size() / 3);
  for (std::size_t p = 0; p < magnitude.size(); ++p) {
    const float u = record[3 * p];
    const float v = record[3 * p + 1];
    const float w = record[3 * p + 2];
    magnitude[p] = std::sqrt(u * u + v * v + w * w);
  }
  std::vector<float> snapshot(layout.nx() * layout.ny());
  layout.recordToRowMajor(magnitude.data(), snapshot.data());
  return snapshot;
}

}  // namespace awp::analysis
