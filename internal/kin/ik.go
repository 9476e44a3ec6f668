package kin

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/geom"
)

// ikFallbackWarmHits counts orientation fallbacks resolved by the single
// warm-started position-only descent rather than a second restart
// schedule. Test observability for the fallback fast path.
var ikFallbackWarmHits atomic.Int64

// ErrUnreachable is returned when inverse kinematics cannot find a joint
// configuration that reaches the target within tolerance. How an arm's
// firmware reacts to this differs per vendor — the paper observed that the
// ViperX silently skips the command while the Ned2 raises and halts — and
// that difference is reproduced by the device drivers, not here.
var ErrUnreachable = errors.New("kin: target unreachable")

// IKOptions tunes the damped-least-squares solver.
type IKOptions struct {
	// Tol is the acceptable Cartesian position error (m).
	Tol float64
	// MaxIters bounds solver iterations per restart.
	MaxIters int
	// Restarts is the number of deterministic seed restarts tried before
	// giving up.
	Restarts int
	// Lambda is the damping factor.
	Lambda float64
	// OrientWeight softly biases the solution so that the tool axis
	// aligns with ToolAxis (metres of equivalent error per radian of
	// misalignment). Zero disables the bias. The bias is soft: only the
	// position residual gates success, so cramped targets that cannot be
	// reached tool-down still solve.
	OrientWeight float64
	// ToolAxis is the preferred tool direction; lab arms work top-down,
	// so the default points straight at the deck.
	ToolAxis geom.Vec3
}

// DefaultIKOptions returns solver settings adequate for lab-deck targets:
// millimetre tolerance, a few hundred iterations, a handful of restarts,
// and a top-down tool preference that keeps wrists above grip points.
func DefaultIKOptions() IKOptions {
	return IKOptions{
		Tol:          1e-3,
		MaxIters:     300,
		Restarts:     6,
		Lambda:       0.35,
		OrientWeight: 0.2,
		ToolAxis:     geom.V(0, 0, -1),
	}
}

// Solve runs damped-least-squares IK for the end-effector position target,
// seeded from q0. It returns a joint configuration within limits whose
// end-effector is within Tol of target, or ErrUnreachable.
func (c *Chain) Solve(target geom.Vec3, q0 []float64, opt IKOptions) ([]float64, error) {
	if len(q0) != len(c.Links) {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrDOFMismatch, len(q0), len(c.Links))
	}
	if !target.IsFinite() {
		return nil, fmt.Errorf("%w: non-finite target %v", ErrUnreachable, target)
	}
	// Quick reachability reject: target beyond the arm's maximum reach.
	if target.Dist(c.Base.T) > c.Reach()+opt.Tol {
		return nil, fmt.Errorf("%w: target %v is %.3f m from base, reach is %.3f m",
			ErrUnreachable, target, target.Dist(c.Base.T), c.Reach())
	}

	n := len(c.Links)
	// Seeds are generated lazily — the q0 seed usually converges and the
	// restart seeds never materialise; a restart the chain's memo answers
	// needs no seed at all. scratch is shared by every restart; only a new
	// best solution is copied out.
	sc := newIKScratch(n, opt)
	seed := make([]float64, n)

	var best []float64
	var bestFail []float64
	bestScore := math.Inf(1)
	bestPosErr := math.Inf(1)
	for r := 0; r <= opt.Restarts; r++ {
		var q []float64
		var posErr, axErr float64
		if r == 0 {
			q, posErr, axErr = c.solveFrom(target, q0, opt, sc)
		} else {
			q, posErr, axErr = c.restartDescent(target, r, opt, seed, sc)
		}
		if posErr > opt.Tol {
			// Track in case nothing converges: the residual for error
			// reporting, the configuration to warm-start the
			// orientation fallback.
			if posErr < bestPosErr {
				bestPosErr = posErr
				if opt.OrientWeight > 0 {
					bestFail = append(bestFail[:0], q...)
				}
			}
			continue
		}
		// Among converged solutions, prefer the best tool alignment.
		score := axErr
		if score < bestScore {
			bestScore = score
			best = append(best[:0], q...)
			bestPosErr = posErr
		}
		if opt.OrientWeight == 0 || score < 0.1 {
			break
		}
	}
	if best == nil {
		if opt.OrientWeight > 0 {
			// The tool-down preference is soft: if no seed converged with
			// it, solve for position alone rather than reporting an
			// unreachable target. A position-only schedule almost always
			// succeeds on its very first descent (from q0), so run that
			// descent alone; if it misses, the weighted schedule already
			// got close in position somewhere — one descent from its best
			// configuration usually lands inside Tol. Only when both
			// single descents miss does a second full restart schedule
			// run.
			bare := opt
			bare.OrientWeight = 0
			scBare := newIKScratch(n, bare)
			q, posErr, _ := c.solveFrom(target, q0, bare, scBare)
			if posErr <= bare.Tol {
				return append([]float64(nil), q...), nil
			}
			if bestFail != nil {
				q, posErr, _ = c.solveFrom(target, bestFail, bare, scBare)
				if posErr <= bare.Tol {
					ikFallbackWarmHits.Add(1)
					return append([]float64(nil), q...), nil
				}
			}
			return c.Solve(target, q0, bare)
		}
		return nil, fmt.Errorf("%w: best residual %.4f m > tol %.4f m for target %v",
			ErrUnreachable, bestPosErr, opt.Tol, target)
	}
	return best, nil
}

// ikScratch holds every buffer one DLS solve needs, so the iteration loop
// (Jacobian, normal matrix, linear solve, residual, clamp) allocates
// nothing. One scratch serves all of a Solve call's restarts.
type ikScratch struct {
	q []float64   // current configuration
	e []float64   // task residual
	j [][]float64 // rows×n Jacobian
	// m is the augmented normal system [J·Jᵀ + λ²I | e] (rows ≤ 6),
	// eliminated in place; w is its solution.
	m [6][7]float64
	w [6]float64
	// The last residual's FK pass, which the Jacobian at the same
	// configuration reuses: joint frame origins and axes, and the
	// end-effector pose.
	orig []geom.Vec3
	axes []geom.Vec3
	ee   geom.Pose
}

func newIKScratch(n int, opt IKOptions) *ikScratch {
	rows := 3
	if opt.OrientWeight > 0 && opt.ToolAxis.Norm() > 0 {
		rows = 6
	}
	sc := &ikScratch{
		q:    make([]float64, n),
		e:    make([]float64, rows),
		j:    make([][]float64, rows),
		orig: make([]geom.Vec3, n),
		axes: make([]geom.Vec3, n),
	}
	for r := 0; r < rows; r++ {
		sc.j[r] = make([]float64, n)
	}
	return sc
}

// solveFrom iterates DLS from one seed; it returns the best configuration
// found (aliasing sc.q — callers must copy to retain it), its position
// residual, and — for a converged descent (position residual ≤ Tol)
// only, else 0 — its tool-axis misalignment (rad).
func (c *Chain) solveFrom(target geom.Vec3, seed []float64, opt IKOptions, sc *ikScratch) ([]float64, float64, float64) {
	n := len(c.Links)
	q := sc.q
	copy(q, seed)
	lambda2 := opt.Lambda * opt.Lambda
	useOrient := opt.OrientWeight > 0 && opt.ToolAxis.Norm() > 0
	rows := 3
	if useOrient {
		rows = 6
	}
	want := opt.ToolAxis.Unit()

	// residual runs the iteration's one FK pass, leaving the frames in sc
	// for the Jacobian at the same q. It returns the position error and
	// the cosine of the tool-axis misalignment; axisErr turns that into
	// an angle only when something reads it.
	residual := func(q []float64) (float64, float64) {
		c.framesInto(q, sc)
		pose := &sc.ee
		e := sc.e
		pe := target.Sub(pose.T)
		e[0], e[1], e[2] = pe.X, pe.Y, pe.Z
		axCos := 0.0
		if useOrient {
			axis := pose.R.Col(2)
			// Least-squares on the axis vector itself: e = want − axis.
			// (A cross-product formulation has zero gradient when the
			// axis is exactly anti-parallel to the preference.)
			diff := want.Sub(axis)
			axCos = axis.Dot(want)
			e[3] = opt.OrientWeight * diff.X
			e[4] = opt.OrientWeight * diff.Y
			e[5] = opt.OrientWeight * diff.Z
		}
		return pe.Norm(), axCos
	}
	axisErr := func(axCos float64) float64 {
		if !useOrient {
			return 0
		}
		return math.Acos(max(-1, min(1, axCos)))
	}

	posErr, axCos := residual(q)

	for iter := 0; iter < opt.MaxIters && (posErr > opt.Tol || (useOrient && iter < opt.MaxIters/2 && axisErr(axCos) > 0.05)); iter++ {
		j := c.taskJacobianInto(rows, opt.OrientWeight, sc)
		// dq = Jᵀ (J Jᵀ + λ² I)⁻¹ e. J·Jᵀ is symmetric: each product
		// j[r][k]·j[s][k] commutes exactly and the sum over k keeps its
		// order, so the upper triangle is computed once and mirrored.
		m := &sc.m
		for r := 0; r < rows; r++ {
			for s := r; s < rows; s++ {
				var sum float64
				for k := 0; k < n; k++ {
					sum += j[r][k] * j[s][k]
				}
				m[r][s], m[s][r] = sum, sum
			}
			m[r][r] += lambda2
			m[r][rows] = sc.e[r]
		}
		if !solveAugmented(m, rows, &sc.w) {
			break
		}
		w := &sc.w
		for k := 0; k < n; k++ {
			var dq float64
			for r := 0; r < rows; r++ {
				dq += j[r][k] * w[r]
			}
			q[k] += dq
		}
		c.clampJointsInPlace(q)
		posErr, axCos = residual(q)
	}
	if posErr > opt.Tol {
		return q, posErr, 0
	}
	return q, posErr, axisErr(axCos)
}

// framesInto is the IK's FK pass at q (len(q) == DOF): it records each
// joint's frame origin and axis (local Z) in sc.orig and sc.axes, and the
// end-effector pose in sc.ee.
func (c *Chain) framesInto(q []float64, sc *ikScratch) {
	c.prepare()
	sc.ee = c.Base
	for i := range c.Links {
		sc.orig[i] = sc.ee.T
		sc.axes[i] = sc.ee.R.Col(2)
		stepDH(&sc.ee, &c.Links[i], q[i])
	}
}

// taskJacobianInto fills sc.j with the rows×n Jacobian at the frames the
// last framesInto left in sc: position rows always, plus tool-axis rows
// (scaled by orientWeight) when rows == 6.
func (c *Chain) taskJacobianInto(rows int, orientWeight float64, sc *ikScratch) [][]float64 {
	n := len(c.Links)
	j := sc.j
	origins, axes := sc.orig, sc.axes
	ee := sc.ee.T
	tool := sc.ee.R.Col(2)
	for i := 0; i < n; i++ {
		col := axes[i].Cross(ee.Sub(origins[i]))
		j[0][i], j[1][i], j[2][i] = col.X, col.Y, col.Z
		if rows == 6 {
			// d(tool)/dq_i = z_i × tool; the residual uses tool × want,
			// whose derivative we approximate by the axis velocity term.
			av := axes[i].Cross(tool)
			j[3][i] = orientWeight * av.X
			j[4][i] = orientWeight * av.Y
			j[5][i] = orientWeight * av.Z
		}
	}
	return j
}

// solveAugmented solves the n×n system held in the augmented matrix m
// (column n is the right-hand side) by Gaussian elimination with partial
// pivoting, in place, writing the solution into x[:n]. It returns false
// when the system is singular. The pivot rule and every operation follow
// the slice-based solver it replaced in the same order, so the solution
// is bit-identical (TestSolveAugmentedMatchesSliceSolver).
func solveAugmented(m *[6][7]float64, n int, x *[6]float64) bool {
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-15 {
			return false
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
	return true
}
