package main

import "time"

// The traced runs record one span per call into a layer's public
// function or interface, from wrappers in this package: the program
// itself is unchanged. Spans stay in memory and are reduced to the
// per-layer metrics when the run ends.

// layer names a span's layer boundary.
type layer uint8

const (
	lIntercept  layer = iota // trace.Interceptor.Do
	lBefore                  // trace.Checker.Before (the engine)
	lAfter                   // trace.Checker.After
	lTrajectory              // core.TrajectoryValidator (the simulator)
	lExecute                 // core.Environment.Execute (the ground-truth world)
	lFetch                   // core.Environment.FetchState[Scoped]
	lGenerate                // campaign Generator.Scenario
	lOracle                  // unprotected world replay
	lProtected               // replay through a pooled stack
	lReset                   // pooled-stack reset
)

// span is one timed call. parent indexes the enclosing span in the same
// log (-1 for a root).
type span struct {
	layer  layer
	parent int32
	start  time.Time
	dur    time.Duration
}

// spanLog is one goroutine's span log. Nested calls on that goroutine
// parent under the innermost open span.
type spanLog struct {
	spans []span
	open  []int32
}

func newSpanLog() *spanLog { return &spanLog{spans: make([]span, 0, 1<<16)} }

// begin opens a span under the innermost open one.
func (l *spanLog) begin(ly layer) int32 {
	parent := int32(-1)
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{layer: ly, parent: parent, start: time.Now()})
	l.open = append(l.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (l *spanLog) end(id int32) {
	l.spans[id].dur = time.Since(l.spans[id].start)
	l.open = l.open[:len(l.open)-1]
}

// durations returns every span of one layer.
func (l *spanLog) durations(ly layer) []time.Duration {
	var out []time.Duration
	for _, s := range l.spans {
		if s.layer == ly {
			out = append(out, s.dur)
		}
	}
	return out
}

// selfTimes returns, for every span of layer ly, its duration minus the
// durations of its direct children of the excluded layers.
func (l *spanLog) selfTimes(ly layer, exclude ...layer) []time.Duration {
	idx := map[int32]int{}
	var out []time.Duration
	for i, s := range l.spans {
		if s.layer == ly {
			idx[int32(i)] = len(out)
			out = append(out, s.dur)
		}
	}
	for _, s := range l.spans {
		if s.parent < 0 {
			continue
		}
		k, ok := idx[s.parent]
		if !ok {
			continue
		}
		for _, ex := range exclude {
			if s.layer == ex {
				out[k] -= s.dur
			}
		}
	}
	return out
}
