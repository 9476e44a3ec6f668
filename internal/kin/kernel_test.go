package kin

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/geom"
)

// The replaced forms of the IK iteration kernel, kept as oracles: the
// slice-based linear solve, the full normal matrix, math.Min/math.Max
// clamping and an eager tool-axis angle. The kernel must reproduce them
// bit for bit.

// oracleSolveLinearInto solves A·x = b by Gaussian elimination with
// partial pivoting, writing the augmented matrix into m (n rows of n+1)
// and the solution into x; ok is false when A is singular.
func oracleSolveLinearInto(a [][]float64, b []float64, m [][]float64, x []float64) ([]float64, bool) {
	n := len(a)
	for i := range a {
		copy(m[i], a[i])
		m[i][n] = b[i]
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-15 {
			return nil, false
		}
		m[col], m[piv] = m[piv], m[col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for k := col; k <= n; k++ {
				m[r][k] -= f * m[col][k]
			}
		}
	}
	for r := n - 1; r >= 0; r-- {
		sum := m[r][n]
		for k := r + 1; k < n; k++ {
			sum -= m[r][k] * x[k]
		}
		x[r] = sum / m[r][r]
	}
	return x, true
}

// oracleSolveFrom is the DLS descent before the kernel rewrite: the full
// J·Jᵀ, the slice solve, math.Min/math.Max clamping, the tool-axis angle
// computed at every residual, and the composed-form FK pass.
func oracleSolveFrom(c *Chain, target geom.Vec3, seed []float64, opt IKOptions) ([]float64, float64, float64) {
	n := len(c.Links)
	sc := newIKScratch(n, opt)
	q := append([]float64(nil), seed...)
	lambda2 := opt.Lambda * opt.Lambda
	useOrient := opt.OrientWeight > 0 && opt.ToolAxis.Norm() > 0
	rows := 3
	if useOrient {
		rows = 6
	}
	want := opt.ToolAxis.Unit()
	jjt := make([][]float64, rows)
	aug := make([][]float64, rows)
	for r := range jjt {
		jjt[r] = make([]float64, rows)
		aug[r] = make([]float64, rows+1)
	}
	w := make([]float64, rows)
	residual := func(q []float64) ([]float64, float64, float64) {
		sc.orig, sc.axes, _, sc.ee = oracleFrames(c, q)
		e := sc.e
		pe := target.Sub(sc.ee.T)
		e[0], e[1], e[2] = pe.X, pe.Y, pe.Z
		axErr := 0.0
		if useOrient {
			axis := sc.ee.R.Col(2)
			diff := want.Sub(axis)
			axErr = math.Acos(math.Max(-1, math.Min(1, axis.Dot(want))))
			e[3] = opt.OrientWeight * diff.X
			e[4] = opt.OrientWeight * diff.Y
			e[5] = opt.OrientWeight * diff.Z
		}
		return e, pe.Norm(), axErr
	}
	e, posErr, axErr := residual(q)
	for iter := 0; iter < opt.MaxIters && (posErr > opt.Tol || (useOrient && axErr > 0.05 && iter < opt.MaxIters/2)); iter++ {
		j := c.taskJacobianInto(rows, opt.OrientWeight, sc)
		for r := 0; r < rows; r++ {
			for s := 0; s < rows; s++ {
				var sum float64
				for k := 0; k < n; k++ {
					sum += j[r][k] * j[s][k]
				}
				jjt[r][s] = sum
			}
			jjt[r][r] += lambda2
		}
		if _, ok := oracleSolveLinearInto(jjt, e, aug, w); !ok {
			break
		}
		for k := 0; k < n; k++ {
			var dq float64
			for r := 0; r < rows; r++ {
				dq += j[r][k] * w[r]
			}
			q[k] += dq
		}
		for i := range q {
			q[i] = math.Max(c.Links[i].MinAngle, math.Min(c.Links[i].MaxAngle, q[i]))
		}
		e, posErr, axErr = residual(q)
	}
	return q, posErr, axErr
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSolveAugmentedMatchesSliceSolver: the fixed-size in-place
// elimination returns the slice solver's ok and solution bits on seeded
// random, near-singular and singular systems of 3 and 6 unknowns.
func TestSolveAugmentedMatchesSliceSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var singular, solved int
	for trial := 0; trial < 20000; trial++ {
		n := 3
		if trial%2 == 1 {
			n = 6
		}
		a := make([][]float64, n)
		for r := range a {
			a[r] = make([]float64, n)
			for c := range a[r] {
				a[r][c] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
		switch trial % 5 {
		case 1: // near-singular: a row nearly repeats another
			src, dst := rng.Intn(n), rng.Intn(n)
			for c := range a[dst] {
				a[dst][c] = a[src][c] * (1 + 1e-13*rng.NormFloat64())
			}
		case 2: // singular: a zero column, or an exact repeated row
			if rng.Intn(2) == 0 {
				col := rng.Intn(n)
				for r := range a {
					a[r][col] = 0
				}
			} else if src, dst := rng.Intn(n), rng.Intn(n); src != dst {
				copy(a[dst], a[src])
			} else {
				for c := range a[dst] {
					a[dst][c] = 0
				}
			}
		case 3: // symmetric positive definite, as in the IK: B·Bᵀ + λ²I
			b := make([][]float64, n)
			for r := range b {
				b[r] = make([]float64, 6)
				for k := range b[r] {
					b[r][k] = rng.NormFloat64()
				}
			}
			for r := range a {
				for s := range a[r] {
					var sum float64
					for k := range b[r] {
						sum += b[r][k] * b[s][k]
					}
					a[r][s] = sum
				}
				a[r][r] += 0.35 * 0.35
			}
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		aug := make([][]float64, n)
		for r := range aug {
			aug[r] = make([]float64, n+1)
		}
		want, wantOK := oracleSolveLinearInto(a, rhs, aug, make([]float64, n))

		var m [6][7]float64
		var x [6]float64
		for r := 0; r < n; r++ {
			copy(m[r][:], a[r])
			m[r][n] = rhs[r]
		}
		ok := solveAugmented(&m, n, &x)
		if ok != wantOK {
			t.Fatalf("trial %d: ok = %v, slice solver %v (a=%v)", trial, ok, wantOK, a)
		}
		if !ok {
			singular++
			continue
		}
		solved++
		if !sameBits(x[:n], want) {
			t.Fatalf("trial %d: x = %v, slice solver %v", trial, x[:n], want)
		}
	}
	if singular == 0 || solved == 0 {
		t.Fatalf("%d singular, %d solved: both must occur", singular, solved)
	}
}

// TestSolveFromMatchesOracle: every DLS descent — orientation-weighted
// and position-only, from Home, random and restart-schedule seeds —
// returns the oracle descent's configuration and position residual bit
// for bit on all five profiles, and its tool-axis angle whenever it
// converged (the only case Solve reads it).
func TestSolveFromMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	bare := DefaultIKOptions()
	bare.OrientWeight = 0
	var converged, missed int
	for _, m := range allModels() {
		p := mustProfile(t, m, goldenBase(m))
		c := p.Chain
		targets, seeds := goldenTargets(p, rng)
		for _, opt := range []IKOptions{DefaultIKOptions(), bare} {
			sc := newIKScratch(c.DOF(), opt)
			for i, tgt := range targets {
				q, posErr, axErr := c.solveFrom(tgt, seeds[i], opt, sc)
				wq, wPos, wAx := oracleSolveFrom(c, tgt, seeds[i], opt)
				if !sameBits(q, wq) || math.Float64bits(posErr) != math.Float64bits(wPos) {
					t.Fatalf("%v target %d (orient %v): q=%v err=%v, oracle q=%v err=%v",
						m, i, opt.OrientWeight, q, posErr, wq, wPos)
				}
				if posErr > opt.Tol {
					missed++
					continue
				}
				converged++
				if math.Float64bits(axErr) != math.Float64bits(wAx) {
					t.Fatalf("%v target %d (orient %v): axis angle %v, oracle %v", m, i, opt.OrientWeight, axErr, wAx)
				}
			}
		}
	}
	if converged == 0 || missed == 0 {
		t.Fatalf("%d converged, %d missed: both must occur", converged, missed)
	}
}

// TestSincosMatchesSinCos: math.Sincos returns the bits of separate
// math.Sin and math.Cos calls, which stepDH's single call relies on to
// keep FK bit-identical. Inputs are seeded wide, tiny, near-π/2-multiple
// and random-bit values; a toolchain whose Sincos diverges fails here.
// A NaN result (from NaN or ±Inf) need only be NaN on both sides: its
// payload is not specified and FK never reads one.
func TestSincosMatchesSinCos(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
	}
	check := func(x float64) {
		s, c := math.Sincos(x)
		if ws, wc := math.Sin(x), math.Cos(x); !same(s, ws) || !same(c, wc) {
			t.Fatalf("Sincos(%v) = (%v, %v), Sin/Cos = (%v, %v)", x, s, c, ws, wc)
		}
	}
	for _, x := range []float64{0, math.Copysign(0, -1), math.Pi / 2, -math.Pi / 2, math.Pi, 2 * math.Pi,
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 1 << 29, 1 << 62} {
		check(x)
	}
	for i := 0; i < 300000; i++ {
		check(4 * math.Pi * (2*rng.Float64() - 1))                         // joint range and beyond
		check(float64(rng.Intn(33)-16)*math.Pi/2 + 1e-9*rng.NormFloat64()) // near multiples of π/2
		check(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-30)))  // tiny to wide
		check(math.Float64frombits(rng.Uint64()))                          // random bits
	}
}

// TestLiteralChainMatchesOracle: a Chain built from DHLink literals,
// not by NewProfile, gets its twist cache filled on first use — from
// several goroutines at once — so Forward, JointOriginsInto and the IK
// frame pass all equal the composed-form oracle bit for bit.
func TestLiteralChainMatchesOracle(t *testing.T) {
	newChain := func() *Chain {
		return &Chain{
			Name: "literal",
			Base: geom.Pose{R: geom.RPY(0.2, -0.4, 1.1), T: geom.V(0.3, -0.1, 0.05)},
			Links: []DHLink{
				{D: 0.2, Alpha: math.Pi / 2, MinAngle: -3, MaxAngle: 3},
				{A: 0.3, Alpha: 0.37, Offset: -0.5, MinAngle: -3, MaxAngle: 3},
				{A: 0.25, Alpha: -1.9, D: 0.04, MinAngle: -3, MaxAngle: 3},
				{D: 0.1, Alpha: -math.Pi / 2, MinAngle: -3, MaxAngle: 3},
				{D: 0.08, Alpha: 1e-7, Offset: 2.2, MinAngle: -3, MaxAngle: 3},
			},
		}
	}
	rng := rand.New(rand.NewSource(31))
	configs := make([][]float64, 2000)
	for k := range configs {
		configs[k] = make([]float64, 5)
		for i := range configs[k] {
			configs[k][i] = 3 * math.Pi * (2*rng.Float64() - 1)
		}
	}
	c := newChain()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sc := newIKScratch(c.DOF(), DefaultIKOptions())
			var pts []geom.Vec3
			for k := g; k < len(configs); k += 4 {
				q := configs[k]
				// Each goroutine enters through a different path first.
				switch (k + g) % 3 {
				case 0:
					c.framesInto(q, sc)
				case 1:
					pts, _ = c.JointOriginsInto(q, pts)
				}
				wantOrig, wantAxes, wantPts, wantEE := oracleFrames(newChain(), q)
				ee, err := c.Forward(q)
				if err != nil {
					t.Error(err)
					return
				}
				pts, _ = c.JointOriginsInto(q, pts)
				c.framesInto(q, sc)
				if !samePose(ee, wantEE) || !sameVecs(pts, wantPts) ||
					!samePose(sc.ee, wantEE) || !sameVecs(sc.orig, wantOrig) || !sameVecs(sc.axes, wantAxes) {
					t.Errorf("q=%v: literal chain FK differs from the oracle", q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Solve is also a first use: on a fresh literal chain it returns the
	// bits it returns on the chain prepared above.
	tgt, _ := newChain().EndEffector([]float64{0.3, -0.8, 1.2, 0.5, -0.4})
	got, err := newChain().Solve(tgt, make([]float64, 5), DefaultIKOptions())
	if err != nil {
		t.Fatalf("literal chain Solve: %v", err)
	}
	if want, _ := c.Solve(tgt, make([]float64, 5), DefaultIKOptions()); !sameBits(got, want) {
		t.Errorf("fresh literal chain solved %v, prepared chain %v", got, want)
	}
}
