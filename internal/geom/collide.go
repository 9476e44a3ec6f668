package geom

import "math"

// SegmentAABBDist returns the minimum distance between a segment and an
// axis-aligned box (zero if they intersect).
func SegmentAABBDist(s Segment, b AABB) float64 {
	return math.Sqrt(SegmentAABBDistSq(s, b))
}

// SegmentAABBDistSq returns the squared minimum distance between a
// segment and an axis-aligned box (zero if they intersect), in closed
// form.
//
// Writing the point at parameter t as P(t) = A + t·D, the squared
// distance to the box is the sum over the three axes of the squared
// distance to that axis' slab [Min_i, Max_i]. Each axis term is
// piecewise quadratic in t, changing shape only where P(t) crosses one
// of the slab's two faces, so the total has at most six interior
// breakpoints. On each interval between consecutive breakpoints the
// total is a single convex quadratic whose minimum is at an endpoint or
// at its stationary point — all evaluated exactly, with no iteration
// and no allocation. Degenerate inputs need no special casing: a
// zero-length segment has no breakpoints and both endpoints evaluate to
// the same point distance, and a zero-volume box is just a slab whose
// faces coincide.
func SegmentAABBDistSq(s Segment, b AABB) float64 {
	a := [3]float64{s.A.X, s.A.Y, s.A.Z}
	d := [3]float64{s.B.X - s.A.X, s.B.Y - s.A.Y, s.B.Z - s.A.Z}
	lo := [3]float64{b.Min.X, b.Min.Y, b.Min.Z}
	hi := [3]float64{b.Max.X, b.Max.Y, b.Max.Z}

	// Collect the parameters in (0,1) where an axis crosses a slab face,
	// plus the segment endpoints.
	var ts [8]float64
	ts[0], ts[1] = 0, 1
	n := 2
	for i := 0; i < 3; i++ {
		if d[i] == 0 {
			continue // axis constant in t: no crossings
		}
		if t := (lo[i] - a[i]) / d[i]; t > 0 && t < 1 {
			ts[n] = t
			n++
		}
		if t := (hi[i] - a[i]) / d[i]; t > 0 && t < 1 {
			ts[n] = t
			n++
		}
	}
	for i := 1; i < n; i++ { // insertion sort: n ≤ 8
		for j := i; j > 0 && ts[j] < ts[j-1]; j-- {
			ts[j], ts[j-1] = ts[j-1], ts[j]
		}
	}

	eval := func(t float64) float64 {
		var sum float64
		for i := 0; i < 3; i++ {
			p := a[i] + t*d[i]
			if p < lo[i] {
				q := lo[i] - p
				sum += q * q
			} else if p > hi[i] {
				q := p - hi[i]
				sum += q * q
			}
		}
		return sum
	}

	best := eval(ts[0])
	for k := 0; k+1 < n && best > 0; k++ {
		t0, t1 := ts[k], ts[k+1]
		if v := eval(t1); v < best {
			best = v
		}
		// Accumulate the interval's quadratic qa·t² + qb·t + const from
		// each axis' side at the interval midpoint — no face crossing lies
		// strictly inside the interval, so the side is constant on it.
		mid := 0.5 * (t0 + t1)
		var qa, qb float64
		for i := 0; i < 3; i++ {
			p := a[i] + mid*d[i]
			if p < lo[i] {
				// (lo_i − a_i − t·d_i)²
				qa += d[i] * d[i]
				qb -= 2 * (lo[i] - a[i]) * d[i]
			} else if p > hi[i] {
				// (a_i + t·d_i − hi_i)²
				qa += d[i] * d[i]
				qb += 2 * (a[i] - hi[i]) * d[i]
			}
		}
		if qa > 0 {
			if t := -qb / (2 * qa); t > t0 && t < t1 {
				if v := eval(t); v < best {
					best = v
				}
			}
		}
	}
	return best
}

// SegmentAABBIntersect reports whether the segment intersects the box,
// using the slab method. When it does, it also returns the smallest
// parameter t ∈ [0,1] at which the segment is inside the box.
func SegmentAABBIntersect(s Segment, b AABB) (bool, float64) {
	d := s.B.Sub(s.A)
	tmin, tmax := 0.0, 1.0
	axes := [3][3]float64{
		{s.A.X, d.X, 0}, {s.A.Y, d.Y, 0}, {s.A.Z, d.Z, 0},
	}
	mins := [3]float64{b.Min.X, b.Min.Y, b.Min.Z}
	maxs := [3]float64{b.Max.X, b.Max.Y, b.Max.Z}
	for i := 0; i < 3; i++ {
		o, dir := axes[i][0], axes[i][1]
		if math.Abs(dir) < 1e-12 {
			if o < mins[i] || o > maxs[i] {
				return false, 0
			}
			continue
		}
		t1 := (mins[i] - o) / dir
		t2 := (maxs[i] - o) / dir
		if t1 > t2 {
			t1, t2 = t2, t1
		}
		tmin = math.Max(tmin, t1)
		tmax = math.Min(tmax, t2)
		if tmin > tmax {
			return false, 0
		}
	}
	return true, tmin
}

// CapsuleAABBIntersect reports whether a capsule overlaps a box: the
// segment-to-box distance is at most the capsule radius. Compared in
// squared form, sparing the square root on the narrow phase's hottest
// predicate.
func CapsuleAABBIntersect(c Capsule, b AABB) bool {
	// Cheap reject on bounds first.
	if !c.Bounds().Intersects(b) {
		return false
	}
	return SegmentAABBDistSq(c.Seg, b) <= c.Radius*c.Radius
}

// SegmentSegmentDist returns the minimum distance between two segments,
// using the standard closest-point parametrisation with clamping.
func SegmentSegmentDist(s1, s2 Segment) float64 {
	d1 := s1.B.Sub(s1.A)
	d2 := s2.B.Sub(s2.A)
	r := s1.A.Sub(s2.A)
	a := d1.NormSq()
	e := d2.NormSq()
	f := d2.Dot(r)

	var s, t float64
	const eps = 1e-12
	switch {
	case a <= eps && e <= eps:
		return s1.A.Dist(s2.A)
	case a <= eps:
		s = 0
		t = clamp01(f / e)
	default:
		c := d1.Dot(r)
		if e <= eps {
			t = 0
			s = clamp01(-c / a)
		} else {
			b := d1.Dot(d2)
			den := a*e - b*b
			if den > eps {
				s = clamp01((b*f - c*e) / den)
			} else {
				s = 0
			}
			t = (b*s + f) / e
			if t < 0 {
				t = 0
				s = clamp01(-c / a)
			} else if t > 1 {
				t = 1
				s = clamp01((b - c) / a)
			}
		}
	}
	return s1.Point(s).Dist(s2.Point(t))
}

// CapsuleCapsuleIntersect reports whether two capsules overlap.
func CapsuleCapsuleIntersect(c1, c2 Capsule) bool {
	return SegmentSegmentDist(c1.Seg, c2.Seg) <= c1.Radius+c2.Radius
}

// CapsulePlanePenetrates reports whether a capsule penetrates the negative
// half-space of the plane (i.e. extends below the deck platform or past a
// wall). The capsule's lowest extent is min(dist(A), dist(B)) − Radius;
// it penetrates when that extent is negative. A capsule resting exactly on
// the plane does not penetrate.
func CapsulePlanePenetrates(c Capsule, pl Plane) bool {
	da := pl.SignedDist(c.Seg.A)
	db := pl.SignedDist(c.Seg.B)
	return math.Min(da, db)-c.Radius < 0
}

func clamp01(t float64) float64 { return math.Max(0, math.Min(1, t)) }
