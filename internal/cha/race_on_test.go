//go:build race

package cha

// raceEnabled reports that this build runs under the race detector, whose
// instrumentation changes allocation counts; the allocation gates skip.
const raceEnabled = true
