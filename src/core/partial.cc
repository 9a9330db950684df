#include "core/partial.h"

#include <algorithm>
#include <vector>

#include "util/error.h"

namespace blot {

STRange DensestSpatialBox(const Dataset& sample, const STRange& universe,
                          double record_fraction) {
  require(!sample.empty(), "DensestSpatialBox: empty sample");
  require(record_fraction > 0 && record_fraction <= 1,
          "DensestSpatialBox: fraction out of range");
  std::vector<double> xs, ys;
  xs.reserve(sample.size());
  ys.reserve(sample.size());
  for (const Record& r : sample.records()) {
    xs.push_back(r.x);
    ys.push_back(r.y);
  }
  std::sort(xs.begin(), xs.end());
  std::sort(ys.begin(), ys.end());
  const auto quantile = [](const std::vector<double>& sorted, double q) {
    const double rank = q * static_cast<double>(sorted.size() - 1);
    return sorted[static_cast<std::size_t>(rank)];
  };
  const auto covered = [&](double alpha) {
    const double x_lo = quantile(xs, alpha), x_hi = quantile(xs, 1 - alpha);
    const double y_lo = quantile(ys, alpha), y_hi = quantile(ys, 1 - alpha);
    std::size_t inside = 0;
    for (const Record& r : sample.records())
      if (r.x >= x_lo && r.x <= x_hi && r.y >= y_lo && r.y <= y_hi)
        ++inside;
    return static_cast<double>(inside) /
           static_cast<double>(sample.size());
  };
  // Binary search the symmetric trim level whose central box covers the
  // requested record fraction.
  double lo = 0.0, hi = 0.49;
  for (int iter = 0; iter < 30; ++iter) {
    const double mid = (lo + hi) / 2;
    if (covered(mid) >= record_fraction) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double alpha = lo;
  return STRange::FromBounds(quantile(xs, alpha), quantile(xs, 1 - alpha),
                             quantile(ys, alpha), quantile(ys, 1 - alpha),
                             universe.t_min(), universe.t_max());
}

}  // namespace blot
