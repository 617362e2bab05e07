// Package walltime exercises the walltime analyzer: wall-clock reads in a
// deterministic package, the Duration-arithmetic negative space, and the
// function-level annotation. The annotated case mirrors the engine's
// partition clock in internal/sim/sharded.go, which samples the clock on
// purpose for a duration no result or snapshot ever sees.
package walltime

import "time"

func stamp() int64 {
	return time.Now().UnixNano() // want `reads the wall clock`
}

func throttle() {
	time.Sleep(time.Millisecond) // want `reads the wall clock`
}

func tick(rounds int) <-chan time.Time {
	return time.Tick(time.Duration(rounds) * time.Second) // want `reads the wall clock`
}

// budget is pure Duration arithmetic — no clock read, no finding.
func budget(rounds int) time.Duration {
	return time.Duration(rounds) * 250 * time.Microsecond
}

// measure samples the wall clock deliberately: its output is a cost read by
// a benchmark, not part of the deterministic result.
//
//detlint:walltime a cost for a benchmark to read, not part of the result
func measure(f func()) time.Duration {
	start := time.Now()
	f()
	return time.Since(start)
}
