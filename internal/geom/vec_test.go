package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestVecBasicOps(t *testing.T) {
	tests := []struct {
		name string
		got  Vec3
		want Vec3
	}{
		{"add", V(1, 2, 3).Add(V(4, 5, 6)), V(5, 7, 9)},
		{"sub", V(4, 5, 6).Sub(V(1, 2, 3)), V(3, 3, 3)},
		{"scale", V(1, -2, 3).Scale(2), V(2, -4, 6)},
		{"neg", V(1, -2, 3).Neg(), V(-1, 2, -3)},
		{"cross-xy", V(1, 0, 0).Cross(V(0, 1, 0)), V(0, 0, 1)},
		{"cross-yz", V(0, 1, 0).Cross(V(0, 0, 1)), V(1, 0, 0)},
		{"min", V(1, 5, 3).Min(V(2, 4, 3)), V(1, 4, 3)},
		{"max", V(1, 5, 3).Max(V(2, 4, 3)), V(2, 5, 3)},
		{"abs", V(-1, 2, -3).Abs(), V(1, 2, 3)},
		{"lerp-mid", V(0, 0, 0).Lerp(V(2, 4, 6), 0.5), V(1, 2, 3)},
		{"lerp-end", V(0, 0, 0).Lerp(V(2, 4, 6), 1), V(2, 4, 6)},
		{"clamp", V(5, -5, 0.5).Clamp(V(0, 0, 0), V(1, 1, 1)), V(1, 0, 0.5)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !tt.got.ApproxEqual(tt.want, 1e-12) {
				t.Errorf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestVecNorms(t *testing.T) {
	v := V(3, 4, 0)
	if got := v.Norm(); got != 5 {
		t.Errorf("Norm() = %v, want 5", got)
	}
	if got := v.NormSq(); got != 25 {
		t.Errorf("NormSq() = %v, want 25", got)
	}
	if got := v.Unit().Norm(); math.Abs(got-1) > 1e-12 {
		t.Errorf("Unit().Norm() = %v, want 1", got)
	}
	if got := Zero3.Unit(); got != Zero3 {
		t.Errorf("Zero3.Unit() = %v, want zero", got)
	}
	if got := V(1, 1, 1).Dist(V(1, 1, 3)); got != 2 {
		t.Errorf("Dist = %v, want 2", got)
	}
}

func TestVecIsFinite(t *testing.T) {
	if !V(1, 2, 3).IsFinite() {
		t.Error("finite vector reported non-finite")
	}
	for _, bad := range []Vec3{
		{X: math.NaN()}, {Y: math.Inf(1)}, {Z: math.Inf(-1)},
	} {
		if bad.IsFinite() {
			t.Errorf("%v reported finite", bad)
		}
	}
}

// boundedVec maps an arbitrary generated vector into a lab-scale range so
// that floating-point overflow does not drown the properties under test.
func boundedVec(v Vec3) Vec3 {
	f := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return math.Mod(x, 100)
	}
	return V(f(v.X), f(v.Y), f(v.Z))
}

func TestVecProperties(t *testing.T) {
	// Dot product is commutative.
	if err := quick.Check(func(a, b Vec3) bool {
		a, b = boundedVec(a), boundedVec(b)
		return math.Abs(a.Dot(b)-b.Dot(a)) < 1e-9*(1+math.Abs(a.Dot(b)))
	}, nil); err != nil {
		t.Error(err)
	}
	// Cross product is anti-commutative and orthogonal to operands.
	if err := quick.Check(func(a, b Vec3) bool {
		a, b = boundedVec(a), boundedVec(b)
		c := a.Cross(b)
		anti := c.Add(b.Cross(a)).Norm() < 1e-6*(1+c.Norm())
		scale := 1 + a.Norm()*b.Norm()
		ortho := math.Abs(c.Dot(a)) < 1e-6*scale*scale && math.Abs(c.Dot(b)) < 1e-6*scale*scale
		return anti && ortho
	}, nil); err != nil {
		t.Error(err)
	}
	// Triangle inequality.
	if err := quick.Check(func(a, b Vec3) bool {
		a, b = boundedVec(a), boundedVec(b)
		return a.Add(b).Norm() <= a.Norm()+b.Norm()+1e-9
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestRotationBasics(t *testing.T) {
	// 90° about Z maps X to Y.
	got := RotZ(math.Pi / 2).Apply(V(1, 0, 0))
	if !got.ApproxEqual(V(0, 1, 0), 1e-12) {
		t.Errorf("RotZ(90°)·x = %v, want y", got)
	}
	// 90° about X maps Y to Z.
	got = RotX(math.Pi / 2).Apply(V(0, 1, 0))
	if !got.ApproxEqual(V(0, 0, 1), 1e-12) {
		t.Errorf("RotX(90°)·y = %v, want z", got)
	}
	// 90° about Y maps Z to X.
	got = RotY(math.Pi / 2).Apply(V(0, 0, 1))
	if !got.ApproxEqual(V(1, 0, 0), 1e-12) {
		t.Errorf("RotY(90°)·z = %v, want x", got)
	}
}

func TestRotationInverseIsTranspose(t *testing.T) {
	r := RPY(0.3, -0.7, 1.2)
	id := r.Mul(r.Transpose())
	if !id.ApproxEqual(Identity3(), 1e-12) {
		t.Errorf("R·Rᵀ = %v, want identity", id)
	}
}

func TestRotationPreservesNorm(t *testing.T) {
	if err := quick.Check(func(roll, pitch, yaw float64, v Vec3) bool {
		v = boundedVec(v)
		if math.IsNaN(roll) || math.IsInf(roll, 0) ||
			math.IsNaN(pitch) || math.IsInf(pitch, 0) ||
			math.IsNaN(yaw) || math.IsInf(yaw, 0) {
			return true
		}
		r := RPY(math.Mod(roll, math.Pi), math.Mod(pitch, math.Pi), math.Mod(yaw, math.Pi))
		return math.Abs(r.Apply(v).Norm()-v.Norm()) < 1e-6*(1+v.Norm())
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestPoseComposeInverse(t *testing.T) {
	p := Pose{R: RPY(0.1, 0.2, 0.3), T: V(1, 2, 3)}
	q := Pose{R: RPY(-0.4, 0.5, -0.6), T: V(-1, 0, 2)}
	v := V(0.7, -0.3, 1.1)

	// (p∘q)(v) == p(q(v))
	got := p.Compose(q).Apply(v)
	want := p.Apply(q.Apply(v))
	if !got.ApproxEqual(want, 1e-12) {
		t.Errorf("compose mismatch: got %v want %v", got, want)
	}

	// p⁻¹(p(v)) == v
	back := p.Inverse().Apply(p.Apply(v))
	if !back.ApproxEqual(v, 1e-12) {
		t.Errorf("inverse round trip: got %v want %v", back, v)
	}
}

func TestFrameTransformError(t *testing.T) {
	f := FrameTransform{
		Pose:  PoseAt(V(1, 0, 0)),
		Noise: V(0.03, 0, 0), // the paper's ~3 cm calibration error
	}
	got := f.Map(V(0, 0, 0))
	if !got.ApproxEqual(V(1.03, 0, 0), 1e-12) {
		t.Errorf("Map = %v, want (1.03,0,0)", got)
	}
	if e := f.Error(); math.Abs(e-0.03) > 1e-12 {
		t.Errorf("Error() = %v, want 0.03", e)
	}
}

// TestVecMinMaxMatchMath pins how Vec3.Min and Max, built on the builtin
// min and max, relate to math.Min and math.Max over every pairing of
// NaN, ±0, ±Inf and ordinary values, in each component and either
// order. Every non-NaN result has the same bits, -0 and +0 included.
// Where math returns NaN the builtin does too, though not always with
// the same payload. The one difference in value: math.Min(NaN, -Inf) is
// -Inf and math.Max(NaN, +Inf) is +Inf, where the builtin returns NaN.
func TestVecMinMaxMatchMath(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{math.NaN(), 0, negZero, math.Inf(1), math.Inf(-1), 1, -1, 1e-310, -2.5, math.MaxFloat64}
	check := func(op string, a, b, got, want, inf float64) {
		t.Helper()
		switch {
		case math.IsNaN(a) != math.IsNaN(b) && (a == inf || b == inf):
			if !math.IsNaN(got) || want != inf {
				t.Errorf("%s(%v, %v) = %v, want NaN (math: %v)", op, a, b, got, want)
			}
		case math.IsNaN(want):
			if !math.IsNaN(got) {
				t.Errorf("%s(%v, %v) = %v, math gives NaN", op, a, b, got)
			}
		case math.Float64bits(got) != math.Float64bits(want):
			t.Errorf("%s(%v, %v) = %v (%#x), math gives %v (%#x)", op, a, b,
				got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, a := range vals {
		for _, b := range vals {
			lo, hi := V(a, b, a).Min(V(b, a, b)), V(a, b, a).Max(V(b, a, b))
			for i, x := range [3]float64{a, b, a} {
				y := [3]float64{b, a, b}[i]
				check("Min", x, y, [3]float64{lo.X, lo.Y, lo.Z}[i], math.Min(x, y), math.Inf(-1))
				check("Max", x, y, [3]float64{hi.X, hi.Y, hi.Z}[i], math.Max(x, y), math.Inf(1))
			}
		}
	}
}
