package kin

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// oracleLinkTransform is the DH link transform as a standalone pose: the
// composed form FK used before the in-place step, kept as the parity
// oracle for stepDH.
func oracleLinkTransform(l DHLink, theta float64) geom.Pose {
	th := theta + l.Offset
	ct, st := math.Cos(th), math.Sin(th)
	ca, sa := math.Cos(l.Alpha), math.Sin(l.Alpha)
	r := geom.Mat3{M: [3][3]float64{
		{ct, -st * ca, st * sa},
		{st, ct * ca, -ct * sa},
		{0, sa, ca},
	}}
	t := geom.V(l.A*ct, l.A*st, l.D)
	return geom.Pose{R: r, T: t}
}

// oracleFrames is the composed-form FK pass: every joint frame's origin
// and axis before its link is applied, the DOF+1 joint origins, and the
// end-effector pose.
func oracleFrames(c *Chain, q []float64) (orig, axes, pts []geom.Vec3, ee geom.Pose) {
	cur := c.Base
	pts = append(pts, cur.T)
	for i, l := range c.Links {
		orig = append(orig, cur.T)
		axes = append(axes, cur.R.Col(2))
		cur = cur.Compose(oracleLinkTransform(l, q[i]))
		pts = append(pts, cur.T)
	}
	return orig, axes, pts, cur
}

func sameVec(a, b geom.Vec3) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) &&
		math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
		math.Float64bits(a.Z) == math.Float64bits(b.Z)
}

func samePose(a, b geom.Pose) bool {
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Float64bits(a.R.M[i][j]) != math.Float64bits(b.R.M[i][j]) {
				return false
			}
		}
	}
	return sameVec(a.T, b.T)
}

func sameVecs(a, b []geom.Vec3) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameVec(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestFKBitParity: Forward, JointOriginsInto and the IK's frame pass are
// bit-identical (Float64bits, so signed zeros count) to the composed-form
// oracle, over 10^5 seeded configurations spread across all five
// profiles on identity, rotated and translated mounts. Joint values run
// past the limits, and every tenth configuration snaps joints to exact
// multiples of π/2, where zero products and signed zeros appear.
func TestFKBitParity(t *testing.T) {
	bases := []geom.Pose{
		geom.IdentityPose(),
		{R: geom.RPY(0.3, -0.7, 2.1), T: geom.V(0.4, -1.2, 0.75)},
		{R: geom.RotZ(math.Pi), T: geom.V(-0.6, 0.35, 0)},
		{R: geom.RPY(math.Pi/2, 0, -math.Pi/2), T: geom.V(1e-3, 2.5, -0.2)},
	}
	const perChain = 5000
	rng := rand.New(rand.NewSource(7))
	total := 0
	for _, m := range allModels() {
		for bi, base := range bases {
			p := mustProfile(t, m, base)
			c := p.Chain
			n := c.DOF()
			q := make([]float64, n)
			sc := newIKScratch(n, DefaultIKOptions())
			var pts []geom.Vec3
			for k := 0; k < perChain; k++ {
				for i := range q {
					q[i] = 3 * math.Pi * (2*rng.Float64() - 1)
					if k%10 == 0 {
						q[i] = float64(rng.Intn(9)-4) * math.Pi / 2
					}
				}
				wantOrig, wantAxes, wantPts, wantEE := oracleFrames(c, q)
				ee, err := c.Forward(q)
				if err != nil {
					t.Fatal(err)
				}
				if !samePose(ee, wantEE) {
					t.Fatalf("%v base %d q=%v: Forward R=%v T=%v, oracle R=%v T=%v", m, bi, q, ee.R.M, ee.T, wantEE.R.M, wantEE.T)
				}
				if pts, err = c.JointOriginsInto(q, pts); err != nil {
					t.Fatal(err)
				}
				if !sameVecs(pts, wantPts) {
					t.Fatalf("%v base %d q=%v: JointOriginsInto %v, oracle %v", m, bi, q, pts, wantPts)
				}
				c.framesInto(q, sc)
				if !samePose(sc.ee, wantEE) || !sameVecs(sc.orig, wantOrig) || !sameVecs(sc.axes, wantAxes) {
					t.Fatalf("%v base %d q=%v: IK frame pass differs from the oracle", m, bi, q)
				}
				total++
			}
		}
	}
	if total < 100000 {
		t.Fatalf("checked %d configurations, want at least 10^5", total)
	}
}

func BenchmarkChainForward(b *testing.B) {
	p, err := NewProfile(ModelUR3e, geom.Pose{R: geom.RotZ(0.3), T: geom.V(0.1, 0.2, 0)})
	if err != nil {
		b.Fatal(err)
	}
	q := append([]float64(nil), p.Home...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q[0] = float64(i%64) * 0.01
		if _, err := p.Chain.Forward(q); err != nil {
			b.Fatal(err)
		}
	}
}
