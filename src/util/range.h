// Spatio-temporal geometry primitives.
//
// BLOT treats every record as a point (x, y, t) in a three-dimensional
// spatio-temporal space and every partition / query as an axis-aligned
// cuboid in that space. Following the paper's Definition 6, a cuboid can be
// described either by min/max bounds or by a size (W, H, T) plus a centroid
// (x, y, t); both constructions are provided.
#ifndef BLOT_UTIL_RANGE_H_
#define BLOT_UTIL_RANGE_H_

#include <iosfwd>
#include <string>

namespace blot {

// A point in spatio-temporal space. `x` and `y` are spatial coordinates
// (e.g. longitude / latitude in degrees); `t` is time (e.g. unix seconds).
struct STPoint {
  double x = 0.0;
  double y = 0.0;
  double t = 0.0;

  friend bool operator==(const STPoint&, const STPoint&) = default;
};

// The size of a cuboid: width (x extent), height (y extent), and duration
// (t extent). This is the paper's grouped-query descriptor <W, H, T>.
struct RangeSize {
  double w = 0.0;
  double h = 0.0;
  double t = 0.0;

  double Volume() const { return w * h * t; }

  friend bool operator==(const RangeSize&, const RangeSize&) = default;
};

// A closed axis-aligned cuboid [x_min,x_max] x [y_min,y_max] x
// [t_min,t_max]. Degenerate (zero-extent) cuboids are permitted.
class STRange {
 public:
  // Constructs the empty range (positive-volume intersection identity:
  // intersects nothing, contains nothing).
  STRange();

  // Constructs from explicit bounds. Requires min <= max in every
  // dimension.
  static STRange FromBounds(double x_min, double x_max, double y_min,
                            double y_max, double t_min, double t_max);

  // Constructs from a size and a centroid, the paper's <W,H,T,x,y,t> form.
  // Requires non-negative sizes.
  static STRange FromCentroid(const RangeSize& size, const STPoint& centroid);

  // The smallest range covering both operands.
  static STRange Union(const STRange& a, const STRange& b);

  double x_min() const { return x_min_; }
  double x_max() const { return x_max_; }
  double y_min() const { return y_min_; }
  double y_max() const { return y_max_; }
  double t_min() const { return t_min_; }
  double t_max() const { return t_max_; }

  bool empty() const { return empty_; }

  double Width() const { return empty_ ? 0.0 : x_max_ - x_min_; }
  double Height() const { return empty_ ? 0.0 : y_max_ - y_min_; }
  double Duration() const { return empty_ ? 0.0 : t_max_ - t_min_; }
  RangeSize Size() const { return {Width(), Height(), Duration()}; }
  double Volume() const { return Width() * Height() * Duration(); }
  STPoint Centroid() const;

  // Point containment (closed bounds).
  bool Contains(const STPoint& p) const;

  // Cuboid containment: true iff `other` lies entirely within this range.
  // The empty range contains nothing and is contained by everything
  // non-empty.
  bool Contains(const STRange& other) const {
    if (empty_) return false;
    if (other.empty_) return true;
    return other.x_min_ >= x_min_ && other.x_max_ <= x_max_ &&
           other.y_min_ >= y_min_ && other.y_max_ <= y_max_ &&
           other.t_min_ >= t_min_ && other.t_max_ <= t_max_;
  }

  // Closed-interval intersection test in all three dimensions; this is the
  // involvement predicate Range(p) ∩ Range(q) != ∅ of Eq. 9. Inline: the
  // partition index and the zone maps call it once per candidate.
  bool Intersects(const STRange& other) const {
    if (empty_ || other.empty_) return false;
    return x_min_ <= other.x_max_ && other.x_min_ <= x_max_ &&
           y_min_ <= other.y_max_ && other.y_min_ <= y_max_ &&
           t_min_ <= other.t_max_ && other.t_min_ <= t_max_;
  }

  // The geometric intersection; empty when the ranges do not intersect.
  STRange Intersection(const STRange& other) const;

  // Grows the range by the given non-negative margins on every side.
  STRange Expanded(double dx, double dy, double dt) const;

  std::string ToString() const;

  friend bool operator==(const STRange&, const STRange&) = default;

 private:
  STRange(double x_min, double x_max, double y_min, double y_max,
          double t_min, double t_max);

  double x_min_, x_max_, y_min_, y_max_, t_min_, t_max_;
  bool empty_;
};

std::ostream& operator<<(std::ostream& os, const STRange& r);

}  // namespace blot

#endif  // BLOT_UTIL_RANGE_H_
