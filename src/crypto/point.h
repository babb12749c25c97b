// secp256k1 curve points (y^2 = x^3 + 7) with Jacobian-coordinate internals.
//
// Scalar multiplication strategy (see DESIGN.md → "Crypto hot path"):
//   * variable-point k·P uses width-5 wNAF over effective-affine precomputed
//     odd multiples (no field inversion anywhere on the path);
//   * k·G uses a fixed 4-bit-window precomputed generator table (signing
//     side — access pattern independent of which window entries are hit);
//   * verification uses Strauss–Shamir interleaving (`mul_add_*_vartime`);
//     against a PrecomputedPoint every scalar is also split into chunks
//     over fixed-base tables, so the shared doubling chain is a quarter as
//     long.
// The `_vartime` suffix marks functions whose running time depends on their
// scalar inputs; they must only ever see public data (signatures, challenge
// scalars, public keys).
#pragma once

#include <memory>
#include <optional>

#include "src/crypto/field.h"
#include "src/crypto/scalar.h"

namespace daric::crypto {

class PrecomputedPoint;

class Point {
 public:
  /// Point at infinity.
  Point() = default;

  static Point generator();
  /// Constructs from affine coordinates; throws if not on the curve.
  static Point from_affine(const Fe& x, const Fe& y);
  /// Parses a 33-byte compressed encoding; nullopt on failure.
  static std::optional<Point> from_compressed(BytesView b);

  bool is_infinity() const { return infinity_; }
  const Fe& x() const { return x_; }
  const Fe& y() const { return y_; }

  Point operator+(const Point& o) const;
  Point dbl() const;
  Point neg() const;
  /// Scalar multiplication (width-5 wNAF; variable time in k).
  Point operator*(const Scalar& k) const;

  /// k*G using a precomputed table of generator multiples.
  static Point mul_gen(const Scalar& k);

  /// a·P + b·G in one Strauss–Shamir interleaved ladder. Variable time.
  static Point mul_add_vartime(const Scalar& a, const Point& p, const Scalar& b);

  /// Whether a·P + b·G == expect, compared in Jacobian coordinates so the
  /// verification hot path performs no field inversion. Variable time.
  static bool mul_add_equals_vartime(const Scalar& a, const Point& p, const Scalar& b,
                                     const Point& expect);

  /// Whether a·P + b·G is a finite point with affine x-coordinate `x` and
  /// a y of parity `y_odd` — the point a 33-byte compressed encoding names,
  /// checked without lifting it (no square root). The x-coordinates are
  /// compared in Jacobian coordinates; the parity costs one field inversion,
  /// spent only when they match. An `x` with no curve point never matches.
  /// Variable time.
  static bool mul_add_matches_vartime(const Scalar& a, const Point& p, const Scalar& b,
                                      const Fe& x, bool y_odd);

  /// Same check against a key whose fixed-base tables were precomputed once
  /// (e.g. a channel counterparty's fixed key). Skips the per-call table
  /// build, and walks a, split by GLV, and b in short chunks over the
  /// tables of their power-of-two multiples. Variable time.
  static bool mul_add_matches_vartime(const Scalar& a, const PrecomputedPoint& p,
                                      const Scalar& b, const Fe& x, bool y_odd);

  /// Naive left-to-right double-and-add ladder. Kept as the benchmark
  /// baseline and as an independent cross-check oracle for the wNAF paths.
  static Point mul_ladder_vartime(const Point& p, const Scalar& k);

  bool operator==(const Point& o) const;

  /// 33-byte compressed SEC encoding; throws for infinity.
  Bytes compressed() const;

 private:
  Fe x_{}, y_{};
  bool infinity_ = true;
};

/// A point with fixed-base true-affine odd-multiples wNAF tables built once
/// up front: one for each power-of-two multiple 2^(s·j)·P that a chunk of a
/// GLV half-scalar is walked against, plus their GLV endomorphism images.
/// Worth building for keys that verify many signatures over their lifetime —
/// a channel counterparty's fixed keys — where it removes the per-verify
/// table construction and most of the doublings from the ladder. Movable,
/// not copyable (the tables are large and sharing is intentional).
class PrecomputedPoint {
 public:
  explicit PrecomputedPoint(const Point& p);
  ~PrecomputedPoint();
  PrecomputedPoint(PrecomputedPoint&&) noexcept;
  PrecomputedPoint& operator=(PrecomputedPoint&&) noexcept;
  PrecomputedPoint(const PrecomputedPoint&) = delete;
  PrecomputedPoint& operator=(const PrecomputedPoint&) = delete;

  const Point& point() const;
  /// point().compressed(), encoded once at construction.
  BytesView compressed() const;

 private:
  friend class Point;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace daric::crypto
