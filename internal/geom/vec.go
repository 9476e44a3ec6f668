// Package geom provides the 3D geometric primitives used throughout the
// RABIT reproduction: vectors, rotations, poses, axis-aligned boxes
// (the paper models every deck device as a cuboid), capsules (robot-arm
// links), segments, and the intersection/distance tests the Extended
// Simulator and the target-location checks are built on.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a 3D vector or point, in metres when it denotes a position.
type Vec3 struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
	Z float64 `json:"z"`
}

// V constructs a Vec3. It exists to keep literal-heavy code (device decks,
// waypoint tables) readable.
func V(x, y, z float64) Vec3 { return Vec3{X: x, Y: y, Z: z} }

// Zero3 is the zero vector.
var Zero3 = Vec3{}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Neg returns -v.
func (v Vec3) Neg() Vec3 { return Vec3{-v.X, -v.Y, -v.Z} }

// Dot returns the dot product v · w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		X: v.Y*w.Z - v.Z*w.Y,
		Y: v.Z*w.X - v.X*w.Z,
		Z: v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// NormSq returns the squared Euclidean length of v.
func (v Vec3) NormSq() float64 { return v.Dot(v) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Unit returns v normalised to length 1. The zero vector is returned
// unchanged (callers that care must check Norm first).
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Lerp linearly interpolates between v (t=0) and w (t=1).
func (v Vec3) Lerp(w Vec3, t float64) Vec3 {
	return Vec3{
		X: v.X + (w.X-v.X)*t,
		Y: v.Y + (w.Y-v.Y)*t,
		Z: v.Z + (w.Z-v.Z)*t,
	}
}

// Min returns the component-wise minimum of v and w. The builtin min is
// inlined, unlike math.Min on amd64, and returns math.Min's bits for
// every non-NaN result, -0 included; it differs only in returning NaN
// for Min(NaN, -Inf), where math.Min returns -Inf (TestVecMinMaxMatchMath).
func (v Vec3) Min(w Vec3) Vec3 {
	return Vec3{min(v.X, w.X), min(v.Y, w.Y), min(v.Z, w.Z)}
}

// Max returns the component-wise maximum of v and w, with the builtin
// max: math.Max's bits except NaN for Max(NaN, +Inf), as Min.
func (v Vec3) Max(w Vec3) Vec3 {
	return Vec3{max(v.X, w.X), max(v.Y, w.Y), max(v.Z, w.Z)}
}

// Abs returns the component-wise absolute value of v.
func (v Vec3) Abs() Vec3 {
	return Vec3{math.Abs(v.X), math.Abs(v.Y), math.Abs(v.Z)}
}

// ApproxEqual reports whether v and w differ by at most eps in every
// component.
func (v Vec3) ApproxEqual(w Vec3, eps float64) bool {
	return math.Abs(v.X-w.X) <= eps && math.Abs(v.Y-w.Y) <= eps && math.Abs(v.Z-w.Z) <= eps
}

// IsFinite reports whether every component of v is a finite number.
func (v Vec3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// String renders v with millimetre precision, which is the resolution that
// matters on a lab deck.
func (v Vec3) String() string {
	return fmt.Sprintf("(%.3f, %.3f, %.3f)", v.X, v.Y, v.Z)
}

// Clamp returns v with every component clamped to [lo, hi] of the
// corresponding component.
func (v Vec3) Clamp(lo, hi Vec3) Vec3 {
	return v.Max(lo).Min(hi)
}
