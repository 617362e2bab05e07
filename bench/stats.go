package main

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the "exclusive" method), which is how the spread of a result set
// is judged: (q3-q1)/median against the metric's bound. It needs at least
// two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// op is one completed operation of the steady phase: when it completed
// (milliseconds since the phase began) and how long its caller waited.
type op struct{ end, lat float64 }

// bestBlock cuts a completion-ordered stream of operations into consecutive
// blocks of b operations (the remainder is dropped; a stream shorter than b
// is one block) and returns the highest block rate — operations per second
// of the block's wall time, reads and idle gaps included — and the lowest
// block median latency, with the number of blocks.
//
// Why not the whole window: on a shared host the neighbours disturb a run in
// bursts of tens of milliseconds whose density drifts over minutes, so a
// whole-window mean or median moves 15-25 % between runs of the same
// program (README "Noise"). The least disturbed block is the classic
// best-of-N estimate of what the program itself costs, and the block — not
// the single operation — is its unit so that the value still averages over
// the operations' own differences.
func bestBlock(ops []op, b int) (perSec, p50 float64, blocks int) {
	b = min(b, len(ops))
	if b == 0 {
		return 0, 0, 0
	}
	p50 = math.Inf(1)
	start := ops[0].end - ops[0].lat
	lat := make([]float64, b)
	for i := 0; i+b <= len(ops); i += b {
		for j := range lat {
			lat[j] = ops[i+j].lat
		}
		end := ops[i+b-1].end
		perSec = max(perSec, float64(b)/(end-start)*1e3)
		p50 = min(p50, median(lat))
		start = end
		blocks++
	}
	return perSec, p50, blocks
}

// timeReps times fn repeatedly — at least minReps times and until budget
// has elapsed, never more than maxReps — and returns each call's duration
// in milliseconds.
func timeReps(minReps, maxReps int, budget time.Duration, fn func()) []float64 {
	var out []float64
	start := time.Now()
	for len(out) < maxReps && (len(out) < minReps || time.Since(start) < budget) {
		t := time.Now()
		fn()
		out = append(out, ms(time.Since(t)))
	}
	return out
}

// perOpNs runs fn n times back to back and returns nanoseconds per call.
func perOpNs(n int, fn func(i int)) float64 {
	t := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t)) / float64(n)
}
