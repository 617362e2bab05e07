//go:build !race

package spec

// raceEnabled reports that this build runs under the race detector, whose
// instrumentation changes allocation counts; the allocation gates skip.
const raceEnabled = false
