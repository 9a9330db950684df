#include "util/range.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/error.h"

namespace blot {

STRange::STRange()
    : x_min_(0), x_max_(0), y_min_(0), y_max_(0), t_min_(0), t_max_(0),
      empty_(true) {}

STRange::STRange(double x_min, double x_max, double y_min, double y_max,
                 double t_min, double t_max)
    : x_min_(x_min), x_max_(x_max), y_min_(y_min), y_max_(y_max),
      t_min_(t_min), t_max_(t_max), empty_(false) {}

STRange STRange::FromBounds(double x_min, double x_max, double y_min,
                            double y_max, double t_min, double t_max) {
  require(x_min <= x_max && y_min <= y_max && t_min <= t_max,
          "STRange::FromBounds: min bound exceeds max bound");
  return STRange(x_min, x_max, y_min, y_max, t_min, t_max);
}

STRange STRange::FromCentroid(const RangeSize& size, const STPoint& c) {
  require(size.w >= 0 && size.h >= 0 && size.t >= 0,
          "STRange::FromCentroid: sizes must be non-negative");
  return STRange(c.x - size.w / 2, c.x + size.w / 2, c.y - size.h / 2,
                 c.y + size.h / 2, c.t - size.t / 2, c.t + size.t / 2);
}

STRange STRange::Union(const STRange& a, const STRange& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  return STRange(std::min(a.x_min_, b.x_min_), std::max(a.x_max_, b.x_max_),
                 std::min(a.y_min_, b.y_min_), std::max(a.y_max_, b.y_max_),
                 std::min(a.t_min_, b.t_min_), std::max(a.t_max_, b.t_max_));
}

STPoint STRange::Centroid() const {
  return {(x_min_ + x_max_) / 2, (y_min_ + y_max_) / 2,
          (t_min_ + t_max_) / 2};
}

bool STRange::Contains(const STPoint& p) const {
  return !empty_ && p.x >= x_min_ && p.x <= x_max_ && p.y >= y_min_ &&
         p.y <= y_max_ && p.t >= t_min_ && p.t <= t_max_;
}

STRange STRange::Intersection(const STRange& other) const {
  if (!Intersects(other)) return STRange();
  return STRange(std::max(x_min_, other.x_min_), std::min(x_max_, other.x_max_),
                 std::max(y_min_, other.y_min_), std::min(y_max_, other.y_max_),
                 std::max(t_min_, other.t_min_), std::min(t_max_, other.t_max_));
}

STRange STRange::Expanded(double dx, double dy, double dt) const {
  require(dx >= 0 && dy >= 0 && dt >= 0,
          "STRange::Expanded: margins must be non-negative");
  if (empty_) return *this;
  return STRange(x_min_ - dx, x_max_ + dx, y_min_ - dy, y_max_ + dy,
                 t_min_ - dt, t_max_ + dt);
}

std::string STRange::ToString() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const STRange& r) {
  if (r.empty()) return os << "[empty]";
  return os << "[" << r.x_min() << "," << r.x_max() << "]x[" << r.y_min()
            << "," << r.y_max() << "]x[" << r.t_min() << "," << r.t_max()
            << "]";
}

}  // namespace blot
