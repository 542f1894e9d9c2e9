// The abstract value domain for the static dataflow engine: a reduced
// product of a small constant set and a strided interval over unsigned
// 32-bit words. Small sets keep exact precision through the `la`/`li`
// idioms and table loads (a dispatch target is one of eight handler
// addresses, not "somewhere in [a,b]"); the strided interval catches
// loop-carried pointers (a table scan advances in stride-4 steps) without
// losing alignment. Everything is a *may* analysis: an AbsVal
// over-approximates the set of concrete values a register can hold, so any
// "proven" predicate (proven_in / proven_outside) is sound for the lint's
// error-severity claims.
//
// The lattice is deliberately shallow:
//
//     bottom  <  {c1..ck} (k <= kMaxConsts)  <  lo..hi (stride s)  <  top
//
// Joins that would grow a constant set past kMaxConsts collapse it to the
// enclosing strided interval (stride = gcd of the gaps). Widening snaps
// interval bounds outward to the caller's threshold set (section
// boundaries: 0, text limit, data base, data limit, stack top) before
// giving up to top, so one extra worklist pass pins "below the text
// section" / "inside the data section" facts that plain interval widening
// would blow straight past. Arithmetic that can wrap 2^32 goes to top
// rather than modelling wraparound.
//
// A value is held inline and never allocates: the constant set lives in a
// fixed array of kMaxConsts words, and an interval's lo/hi/stride reuse
// its first three slots. Joins and pairwise products build into a stack
// buffer before collapsing, so the worklist copies and compares states as
// plain memory.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <vector>

namespace sofia::verify {

class AbsVal {
 public:
  /// Largest constant set carried exactly; joins beyond this collapse to a
  /// strided interval. 16 covers every dispatch table in the workload zoo.
  static constexpr std::size_t kMaxConsts = 16;

  AbsVal() = default;  ///< bottom

  static AbsVal bottom() { return AbsVal(); }
  static AbsVal top() {
    AbsVal v;
    v.kind_ = Kind::kTop;
    return v;
  }
  static AbsVal constant(std::uint32_t c) {
    AbsVal v;
    v.kind_ = Kind::kConsts;
    v.n_ = 1;
    v.w_[0] = c;
    return v;
  }
  /// The set {lo, lo+stride, ..., hi}; requires lo <= hi and
  /// (hi - lo) % stride == 0 (callers pass well-formed triples).
  static AbsVal interval(std::uint32_t lo, std::uint32_t hi,
                         std::uint32_t stride = 1) {
    if (lo == hi) return constant(lo);
    AbsVal v;
    v.kind_ = Kind::kInterval;
    v.w_[kLo] = lo;
    v.w_[kHi] = hi;
    v.w_[kStride] = stride == 0 ? 1 : stride;
    return v;
  }
  static AbsVal consts(std::vector<std::uint32_t> values) {
    std::sort(values.begin(), values.end());
    const auto end = std::unique(values.begin(), values.end());
    return from_sorted({values.begin(), end});
  }

  bool is_bottom() const { return kind_ == Kind::kBottom; }
  bool is_top() const { return kind_ == Kind::kTop; }
  /// A single known value, if this is exactly one constant.
  std::optional<std::uint32_t> as_constant() const {
    if (kind_ == Kind::kConsts && n_ == 1) return w_[0];
    return std::nullopt;
  }

  /// Smallest / largest concrete value (valid unless bottom/top).
  std::uint32_t min() const { return w_[0]; }  // first member, or lo
  std::uint32_t max() const {
    return kind_ == Kind::kConsts ? w_[n_ - 1] : w_[kHi];
  }

  /// Enumerate every concrete value when the set is finite and holds at
  /// most max_count members; nullopt otherwise (including top/bottom).
  std::optional<std::vector<std::uint32_t>> enumerate(
      std::size_t max_count) const {
    if (kind_ == Kind::kConsts) {
      if (n_ > max_count) return std::nullopt;
      return std::vector<std::uint32_t>(set().begin(), set().end());
    }
    if (kind_ != Kind::kInterval) return std::nullopt;
    const std::uint64_t count =
        (std::uint64_t{hi()} - lo()) / stride() + 1;
    if (count > max_count) return std::nullopt;
    std::vector<std::uint32_t> out;
    out.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t v = lo(); v <= hi(); v += stride())
      out.push_back(static_cast<std::uint32_t>(v));
    return out;
  }

  // ---- range predicates (half-open byte ranges [lo, hi)) -----------------

  /// Every concrete value lies inside [lo, hi). False for top/bottom.
  bool proven_in(std::uint32_t lo, std::uint32_t hi) const {
    if (kind_ == Kind::kBottom || kind_ == Kind::kTop) return false;
    return min() >= lo && max() < hi;
  }

  /// No concrete value lies inside [lo, hi). False for top/bottom.
  /// For constant sets this checks each member, so a set straddling the
  /// range (e.g. {below, above}) is still proven disjoint.
  bool proven_outside(std::uint32_t lo, std::uint32_t hi) const {
    switch (kind_) {
      case Kind::kBottom:
      case Kind::kTop: return false;
      case Kind::kConsts:
        return std::none_of(set().begin(), set().end(),
                            [&](std::uint32_t c) { return c >= lo && c < hi; });
      case Kind::kInterval:
        if (max() < lo || min() >= hi) return true;
        if (stride() > 1) {
          // Walkable gap check only when cheap; otherwise conservatively
          // assume the interval touches the range.
          for (std::uint64_t v = min(); v <= max(); v += stride())
            if (v >= lo && v < hi) return false;
          return true;
        }
        return false;
    }
    return false;
  }

  /// May any concrete value lie inside [lo, hi)? True for top.
  bool may_intersect(std::uint32_t lo, std::uint32_t hi) const {
    if (kind_ == Kind::kBottom) return false;
    if (kind_ == Kind::kTop) return true;
    return !proven_outside(lo, hi);
  }

  // ---- lattice -------------------------------------------------------------

  friend bool operator==(const AbsVal& a, const AbsVal& b) {
    if (a.kind_ != b.kind_) return false;
    switch (a.kind_) {
      case Kind::kBottom:
      case Kind::kTop: return true;
      case Kind::kConsts:
        return a.n_ == b.n_ && std::equal(a.set().begin(), a.set().end(),
                                          b.w_.begin());
      case Kind::kInterval:
        return a.lo() == b.lo() && a.hi() == b.hi() &&
               a.stride() == b.stride();
    }
    return false;
  }

  static AbsVal join(const AbsVal& a, const AbsVal& b) {
    if (a.kind_ == Kind::kBottom) return b;
    if (b.kind_ == Kind::kBottom) return a;
    if (a.kind_ == Kind::kTop || b.kind_ == Kind::kTop) return top();
    if (a.kind_ == Kind::kConsts && b.kind_ == Kind::kConsts) {
      // Both sets are sorted and unique, so their union is too.
      std::array<std::uint32_t, 2 * kMaxConsts> merged;
      const auto end = std::set_union(a.set().begin(), a.set().end(),
                                      b.set().begin(), b.set().end(),
                                      merged.begin());
      return from_sorted({merged.begin(), end});
    }
    // At least one interval: hull with gcd stride.
    const std::uint32_t lo = std::min(a.min(), b.min());
    const std::uint32_t hi = std::max(a.max(), b.max());
    std::uint32_t stride = std::gcd(a.stride_of(), b.stride_of());
    stride = std::gcd(stride, a.min() > lo ? a.min() - lo : b.min() - lo);
    if (stride == 0) stride = 1;
    if ((hi - lo) % stride != 0) stride = std::gcd(stride, hi - lo);
    return interval(lo, hi, stride == 0 ? 1 : stride);
  }

  /// Widening: when `next` escapes `prev`'s bounds, snap the escaping bound
  /// outward to the nearest threshold (sorted ascending) instead of taking
  /// the join; a second escape past the last threshold goes to top.
  static AbsVal widen(const AbsVal& prev, const AbsVal& next,
                      const std::vector<std::uint32_t>& thresholds) {
    const AbsVal j = join(prev, next);
    if (j == prev || prev.is_top()) return prev;
    if (j.is_top() || prev.is_bottom()) return j;
    // Constant sets may keep growing up to kMaxConsts without widening.
    if (j.kind_ == Kind::kConsts) return j;
    std::uint32_t lo = j.min();
    std::uint32_t hi = j.max();
    if (!prev.is_bottom() && lo < prev.min()) {
      // Largest threshold <= lo, else 0.
      std::uint32_t snapped = 0;
      for (const std::uint32_t t : thresholds)
        if (t <= lo) snapped = t;
      lo = snapped;
    }
    if (!prev.is_bottom() && hi > prev.max()) {
      // Smallest threshold > hi, else top.
      std::uint32_t snapped = 0;
      bool found = false;
      for (const std::uint32_t t : thresholds)
        if (t > hi) {
          snapped = t;
          found = true;
          break;
        }
      if (!found) return top();
      hi = snapped;
    }
    return interval(lo, hi, 1);
  }

  // ---- transfer functions --------------------------------------------------

  static AbsVal add(const AbsVal& a, const AbsVal& b) {
    return arith(a, b, [](std::uint64_t x, std::uint64_t y) { return x + y; });
  }
  static AbsVal sub(const AbsVal& a, const AbsVal& b) {
    // Interval minus a constant keeps the shape when no borrow is possible.
    if (const auto c = b.as_constant(); c && a.kind_ == Kind::kInterval &&
                                        a.min() >= *c)
      return interval(a.min() - *c, a.max() - *c, a.stride());
    // Otherwise unsigned borrows wrap; only exact constant pairs are safe
    // to evaluate (32-bit wrap is intentional there — `addi r, r, -8`).
    return exact(a, b, [](std::uint32_t x, std::uint32_t y) { return x - y; });
  }
  static AbsVal mul(const AbsVal& a, const AbsVal& b) {
    return arith(a, b, [](std::uint64_t x, std::uint64_t y) { return x * y; });
  }
  static AbsVal and_(const AbsVal& a, const AbsVal& b) {
    const AbsVal e =
        exact(a, b, [](std::uint32_t x, std::uint32_t y) { return x & y; });
    if (!e.is_top()) return e;
    // x & y <= min(max(x), max(y)) for unsigned operands.
    if (a.bounded() && b.bounded())
      return interval(0, std::min(a.max(), b.max()));
    if (a.bounded()) return interval(0, a.max());
    if (b.bounded()) return interval(0, b.max());
    return top();
  }
  static AbsVal or_(const AbsVal& a, const AbsVal& b) {
    return exact(a, b, [](std::uint32_t x, std::uint32_t y) { return x | y; });
  }
  static AbsVal xor_(const AbsVal& a, const AbsVal& b) {
    return exact(a, b, [](std::uint32_t x, std::uint32_t y) { return x ^ y; });
  }
  static AbsVal shl(const AbsVal& a, const AbsVal& sh) {
    const auto c = sh.as_constant();
    if (!c) return exact(a, sh, [](std::uint32_t x, std::uint32_t y) {
      return x << (y & 31);
    });
    const std::uint32_t s = *c & 31;
    if (a.kind_ == Kind::kInterval) {
      // Shape-preserving shift: a stride-k interval becomes stride-(k<<s).
      if ((std::uint64_t{a.hi()} << s) >= (std::uint64_t{1} << 32))
        return top();
      return interval(a.lo() << s, a.hi() << s, a.stride() << s);
    }
    return arith(a, constant(1u << s),
                 [](std::uint64_t x, std::uint64_t y) { return x * y; });
  }
  static AbsVal shr(const AbsVal& a, const AbsVal& sh) {
    const auto c = sh.as_constant();
    if (c && a.bounded()) {
      const std::uint32_t s = *c & 31;
      return interval(a.min() >> s, a.max() >> s);
    }
    return exact(a, sh, [](std::uint32_t x, std::uint32_t y) {
      return x >> (y & 31);
    });
  }

  /// Interval with known bounds (constants or interval kinds).
  bool bounded() const {
    return kind_ == Kind::kConsts || kind_ == Kind::kInterval;
  }

 private:
  enum class Kind : std::uint8_t { kBottom, kConsts, kInterval, kTop };

  /// Slots of w_ that hold an interval.
  static constexpr std::size_t kLo = 0, kHi = 1, kStride = 2;

  std::span<const std::uint32_t> set() const { return {w_.data(), n_}; }
  std::uint32_t lo() const { return w_[kLo]; }
  std::uint32_t hi() const { return w_[kHi]; }
  std::uint32_t stride() const { return w_[kStride]; }

  std::uint32_t stride_of() const {
    if (kind_ == Kind::kInterval) return stride();
    if (kind_ == Kind::kConsts && n_ >= 2) {
      std::uint32_t g = 0;
      for (std::size_t i = 1; i < n_; ++i) g = std::gcd(g, w_[i] - w_[i - 1]);
      return g == 0 ? 1 : g;
    }
    return 1;  // single constant: any stride divides a point
  }

  /// The value of a sorted, duplicate-free member list: bottom when empty,
  /// the gcd-stride hull past kMaxConsts members, the set otherwise.
  static AbsVal from_sorted(std::span<const std::uint32_t> sorted) {
    if (sorted.empty()) return bottom();
    if (sorted.size() > kMaxConsts) return hull(sorted);
    AbsVal v;
    v.kind_ = Kind::kConsts;
    v.n_ = static_cast<std::uint8_t>(sorted.size());
    std::copy(sorted.begin(), sorted.end(), v.w_.begin());
    return v;
  }

  static AbsVal hull(std::span<const std::uint32_t> sorted) {
    std::uint32_t g = 0;
    for (std::size_t i = 1; i < sorted.size(); ++i)
      g = std::gcd(g, sorted[i] - sorted[i - 1]);
    return interval(sorted.front(), sorted.back(), g == 0 ? 1 : g);
  }

  /// Pairwise evaluation over two constant sets; anything else is top.
  template <typename F>
  static AbsVal exact(const AbsVal& a, const AbsVal& b, F f) {
    if (a.kind_ == Kind::kBottom || b.kind_ == Kind::kBottom) return bottom();
    if (a.kind_ != Kind::kConsts || b.kind_ != Kind::kConsts) return top();
    std::array<std::uint32_t, kMaxConsts * kMaxConsts> out;
    std::size_t n = 0;
    for (const std::uint32_t x : a.set())
      for (const std::uint32_t y : b.set()) out[n++] = f(x, y);
    std::sort(out.begin(), out.begin() + n);
    const auto end = std::unique(out.begin(), out.begin() + n);
    return from_sorted({out.begin(), end});
  }

  /// Monotone unsigned arithmetic in 64 bits; a result past 2^32 (i.e. a
  /// potential wrap) goes to top. Constant sets stay exact, intervals
  /// combine bound-wise with gcd strides.
  template <typename F>
  static AbsVal arith(const AbsVal& a, const AbsVal& b, F f) {
    if (a.kind_ == Kind::kBottom || b.kind_ == Kind::kBottom) return bottom();
    if (a.kind_ == Kind::kTop || b.kind_ == Kind::kTop) return top();
    constexpr std::uint64_t kLimit = std::uint64_t{1} << 32;
    if (f(a.max(), b.max()) >= kLimit) return top();
    if (a.kind_ == Kind::kConsts && b.kind_ == Kind::kConsts)
      return exact(a, b, [&](std::uint32_t x, std::uint32_t y) {
        return static_cast<std::uint32_t>(f(x, y));
      });
    const auto lo = static_cast<std::uint32_t>(f(a.min(), b.min()));
    const auto hi = static_cast<std::uint32_t>(f(a.max(), b.max()));
    if (lo > hi) return top();  // non-monotone corner (e.g. mul by 0-set)
    std::uint32_t stride = std::gcd(a.stride_of(), b.stride_of());
    if (stride == 0 || (hi - lo) % stride != 0)
      stride = std::gcd(stride, hi - lo);
    return interval(lo, hi, stride == 0 ? 1 : stride);
  }

  /// kConsts: the first n_ words, sorted and unique. kInterval: lo, hi
  /// and stride at kLo/kHi/kStride. Zero otherwise, so min() and max() of
  /// bottom and top read 0.
  std::array<std::uint32_t, kMaxConsts> w_{};
  Kind kind_ = Kind::kBottom;
  std::uint8_t n_ = 0;  ///< set size (kConsts)
};

}  // namespace sofia::verify
