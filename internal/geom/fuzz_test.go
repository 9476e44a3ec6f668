package geom

import (
	"math"
	"math/rand"
	"testing"
)

// The satellite-2 audit: SegmentSegmentDist and SegmentAABBDist over
// degenerate inputs — zero-length segments (a stationary sample, or a
// link collapsed by a straight-through joint) and zero-volume boxes
// (flat wall panels) — pinned against dense sampling, plus native fuzz
// targets doing the same over arbitrary inputs.

// sampledSegmentAABBDist brute-forces the segment-to-box distance by
// dense parameter sampling — the oracle the closed form is pinned
// against.
func sampledSegmentAABBDist(s Segment, b AABB, n int) float64 {
	best := math.Inf(1)
	for i := 0; i <= n; i++ {
		t := float64(i) / float64(n)
		if d := b.DistToPoint(s.Point(t)); d < best {
			best = d
		}
	}
	return best
}

// sampledSegmentSegmentDist densely samples both parameters.
func sampledSegmentSegmentDist(s1, s2 Segment, n int) float64 {
	best := math.Inf(1)
	for i := 0; i <= n; i++ {
		p := s1.Point(float64(i) / float64(n))
		for j := 0; j <= n; j++ {
			if d := p.Dist(s2.Point(float64(j) / float64(n))); d < best {
				best = d
			}
		}
	}
	return best
}

func TestSegmentAABBDistDegenerate(t *testing.T) {
	flat := Box(V(0, 0.62, -1), V(2, 0.62, 2)) // zero-volume wall panel
	cases := []struct {
		name string
		seg  Segment
		box  AABB
		want float64
	}{
		{"zero-length segment outside", Segment{A: V(2, 0, 0), B: V(2, 0, 0)}, Box(V(0, 0, 0), V(1, 1, 1)), 1},
		{"zero-length segment inside", Segment{A: V(0.5, 0.5, 0.5), B: V(0.5, 0.5, 0.5)}, Box(V(0, 0, 0), V(1, 1, 1)), 0},
		{"zero-length segment on face", Segment{A: V(1, 0.5, 0.5), B: V(1, 0.5, 0.5)}, Box(V(0, 0, 0), V(1, 1, 1)), 0},
		{"segment to flat box", Segment{A: V(1, 0, 0), B: V(1, 0.5, 0)}, flat, 0.12},
		{"segment crossing flat box", Segment{A: V(1, 0, 0), B: V(1, 1, 0)}, flat, 0},
		{"segment in flat box plane", Segment{A: V(0.5, 0.62, 0), B: V(1.5, 0.62, 0)}, flat, 0},
		{"point box", Segment{A: V(0, 0, 0), B: V(1, 0, 0)}, Box(V(0.5, 0.3, 0.4), V(0.5, 0.3, 0.4)), 0.5},
		{"zero segment to point box", Segment{A: V(0, 0, 0), B: V(0, 0, 0)}, Box(V(3, 4, 0), V(3, 4, 0)), 5},
	}
	for _, tc := range cases {
		if got := SegmentAABBDist(tc.seg, tc.box); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: got %.12f want %.12f", tc.name, got, tc.want)
		}
	}
}

func TestSegmentSegmentDistDegenerate(t *testing.T) {
	cases := []struct {
		name   string
		s1, s2 Segment
		want   float64
	}{
		{"both zero length", Segment{A: V(0, 0, 0), B: V(0, 0, 0)}, Segment{A: V(3, 4, 0), B: V(3, 4, 0)}, 5},
		{"first zero length", Segment{A: V(0, 0, 1), B: V(0, 0, 1)}, Segment{A: V(-1, 0, 0), B: V(1, 0, 0)}, 1},
		{"second zero length", Segment{A: V(-1, 0, 0), B: V(1, 0, 0)}, Segment{A: V(0, 2, 0), B: V(0, 2, 0)}, 2},
		{"parallel overlapping", Segment{A: V(0, 0, 0), B: V(1, 0, 0)}, Segment{A: V(0.5, 1, 0), B: V(1.5, 1, 0)}, 1},
		{"collinear disjoint", Segment{A: V(0, 0, 0), B: V(1, 0, 0)}, Segment{A: V(3, 0, 0), B: V(4, 0, 0)}, 2},
		{"crossing", Segment{A: V(-1, 0, 0), B: V(1, 0, 0)}, Segment{A: V(0, -1, 0), B: V(0, 1, 0)}, 0},
	}
	for _, tc := range cases {
		if got := SegmentSegmentDist(tc.s1, tc.s2); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: got %.12f want %.12f", tc.name, got, tc.want)
		}
		// Symmetry under argument swap.
		if got, rev := SegmentSegmentDist(tc.s1, tc.s2), SegmentSegmentDist(tc.s2, tc.s1); math.Abs(got-rev) > 1e-9 {
			t.Errorf("%s: asymmetric: %v vs %v", tc.name, got, rev)
		}
	}
}

// TestSegmentAABBDistRandomDegenerate pins the exact form against dense
// sampling over randomized inputs biased toward degeneracy: with
// probability ~1/2 the segment is collapsed to a point and each box axis
// independently flattened.
func TestSegmentAABBDistRandomDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	rv := func() float64 { return rng.Float64()*4 - 2 }
	for trial := 0; trial < 500; trial++ {
		seg := Segment{A: V(rv(), rv(), rv()), B: V(rv(), rv(), rv())}
		if rng.Intn(2) == 0 {
			seg.B = seg.A
		}
		b := Box(V(rv(), rv(), rv()), V(rv(), rv(), rv()))
		if rng.Intn(2) == 0 {
			switch rng.Intn(3) {
			case 0:
				b.Max.X = b.Min.X
			case 1:
				b.Max.Y = b.Min.Y
			default:
				b.Max.Z = b.Min.Z
			}
		}
		want := sampledSegmentAABBDist(seg, b, 4000)
		got := SegmentAABBDist(seg, b)
		// The exact form can only be ≤ the sampled oracle, and never by
		// more than one sampling step's travel.
		step := seg.Length() / 4000
		if got > want+1e-9 || got < want-step {
			t.Fatalf("trial %d: seg %+v box %v: exact %.12f sampled %.12f", trial, seg, b, got, want)
		}
	}
}

// TestSegmentSegmentDistRandom pins the clamped closed form against
// dense sampling, again biased toward degenerate shapes.
func TestSegmentSegmentDistRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rv := func() float64 { return rng.Float64()*4 - 2 }
	for trial := 0; trial < 300; trial++ {
		s1 := Segment{A: V(rv(), rv(), rv()), B: V(rv(), rv(), rv())}
		s2 := Segment{A: V(rv(), rv(), rv()), B: V(rv(), rv(), rv())}
		switch rng.Intn(4) {
		case 0:
			s1.B = s1.A
		case 1:
			s2.B = s2.A
		case 2: // parallel
			d := s1.B.Sub(s1.A)
			s2.B = s2.A.Add(d.Scale(rng.Float64()*2 - 1))
		}
		want := sampledSegmentSegmentDist(s1, s2, 400)
		got := SegmentSegmentDist(s1, s2)
		step := (s1.Length() + s2.Length()) / 400
		if got > want+1e-9 || got < want-step {
			t.Fatalf("trial %d: %+v vs %+v: closed %.12f sampled %.12f", trial, s1, s2, got, want)
		}
	}
}

// FuzzSegmentAABBDist cross-checks the exact closed form against the
// dense-sampling oracle on arbitrary (finite) inputs.
func FuzzSegmentAABBDist(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, -0.5, -0.5, -0.5, 0.5, 0.5, 0.5)
	f.Add(2.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0) // point seg, flat box
	f.Add(1.0, 0.62, -1.0, 1.0, 0.62, 2.0, 0.0, 0.62, 0.0, 2.0, 0.62, 1.0)
	f.Fuzz(func(t *testing.T, ax, ay, az, bx, by, bz, m0, m1, m2, m3, m4, m5 float64) {
		for _, v := range []float64{ax, ay, az, bx, by, bz, m0, m1, m2, m3, m4, m5} {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				return
			}
		}
		seg := Segment{A: V(ax, ay, az), B: V(bx, by, bz)}
		box := Box(V(m0, m1, m2), V(m3, m4, m5))
		got := SegmentAABBDist(seg, box)
		want := sampledSegmentAABBDist(seg, box, 2000)
		step := seg.Length() / 2000
		if got > want+1e-6*(1+want) || got < want-step {
			t.Fatalf("seg %+v box %v: exact %.12f sampled %.12f", seg, box, got, want)
		}
		if got < 0 || math.IsNaN(got) {
			t.Fatalf("seg %+v box %v: invalid distance %v", seg, box, got)
		}
	})
}

// FuzzSegmentSegmentDist cross-checks the clamped closed form the same
// way.
func FuzzSegmentSegmentDist(f *testing.F) {
	f.Add(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 4.0, 0.0, 3.0, 4.0, 0.0) // both points
	f.Fuzz(func(t *testing.T, ax, ay, az, bx, by, bz, cx, cy, cz, dx, dy, dz float64) {
		for _, v := range []float64{ax, ay, az, bx, by, bz, cx, cy, cz, dx, dy, dz} {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				return
			}
		}
		s1 := Segment{A: V(ax, ay, az), B: V(bx, by, bz)}
		s2 := Segment{A: V(cx, cy, cz), B: V(dx, dy, dz)}
		got := SegmentSegmentDist(s1, s2)
		want := sampledSegmentSegmentDist(s1, s2, 200)
		step := (s1.Length() + s2.Length()) / 200
		if got > want+1e-6*(1+want) || got < want-step {
			t.Fatalf("%+v vs %+v: closed %.12f sampled %.12f", s1, s2, got, want)
		}
		if got < 0 || math.IsNaN(got) {
			t.Fatalf("%+v vs %+v: invalid distance %v", s1, s2, got)
		}
	})
}
