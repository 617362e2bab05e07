package sim

import (
	"runtime"
	"sort"
	"sync"
	"testing"
)

// chunksOf records the (lo, hi) ranges a fan-out primitive produced,
// sorted by lo (the chunks run concurrently, so arrival order is noise).
func chunksOf(run func(record func(lo, hi int))) [][2]int {
	var mu sync.Mutex
	var chunks [][2]int
	run(func(lo, hi int) {
		mu.Lock()
		chunks = append(chunks, [2]int{lo, hi})
		mu.Unlock()
	})
	sort.Slice(chunks, func(i, j int) bool { return chunks[i][0] < chunks[j][0] })
	return chunks
}

// checkChunks asserts the chunk invariants: the sorted chunks tile [0, n)
// contiguously with no gaps or overlaps, there are exactly want of them,
// and their sizes are balanced (differ by at most one, none empty when
// n > 0). A ceil-division split violates balance for n slightly above a
// multiple of workers — 9 over 8 gives chunks 2,2,2,2,1, leaving three
// workers idle and a degenerate last chunk.
func checkChunks(t *testing.T, chunks [][2]int, n, want int) {
	t.Helper()
	if len(chunks) != want {
		t.Fatalf("got %d chunks %v, want %d", len(chunks), chunks, want)
	}
	next, minSz, maxSz := 0, n+1, -1
	for _, c := range chunks {
		if c[0] != next {
			t.Fatalf("chunks %v do not tile [0,%d): gap or overlap at %d", chunks, n, c[0])
		}
		sz := c[1] - c[0]
		if n > 0 && want > 1 && sz == 0 {
			t.Fatalf("chunks %v contain an empty chunk", chunks)
		}
		if sz < minSz {
			minSz = sz
		}
		if sz > maxSz {
			maxSz = sz
		}
		next = c[1]
	}
	if next != n {
		t.Fatalf("chunks %v cover [0,%d), want [0,%d)", chunks, next, n)
	}
	if want > 1 && maxSz-minSz > 1 {
		t.Fatalf("chunks %v unbalanced: sizes range %d..%d", chunks, minSz, maxSz)
	}
}

// TestWorkerPoolRunChunks pins the persistent pool's chunking to those
// invariants at the edge widths — n=0 (one empty call), n<k (one chunk per
// index), n=k+1 (every worker used, sizes 1 or 2) — plus its clamps (k
// capped by n and by the pool width) and reuse across many runs of varying
// shape on the same parked helpers.
func TestWorkerPoolRunChunks(t *testing.T) {
	p := newWorkerPool(7) // width 8
	defer p.close()
	poolChunks := func(n, k int) [][2]int {
		return chunksOf(func(rec func(lo, hi int)) {
			p.run(n, k, func(_, lo, hi int) { rec(lo, hi) })
		})
	}
	checkChunks(t, poolChunks(0, 4), 0, 1)
	checkChunks(t, poolChunks(9, 8), 9, 8)
	checkChunks(t, poolChunks(3, 8), 3, 3)
	checkChunks(t, poolChunks(100, 16), 100, 8) // clamped to pool width
	for rep := 0; rep < 5; rep++ {              // helpers are reused, not respawned
		for _, n := range []int{1, 7, 64, 513} {
			for _, k := range []int{1, 2, 5, 8} {
				want := k
				if want > n {
					want = n
				}
				checkChunks(t, poolChunks(n, k), n, want)
			}
		}
	}
	// The chunk index argument matches the chunk's balanced range.
	var mu sync.Mutex
	got := map[int][2]int{}
	p.run(22, 5, func(w, lo, hi int) {
		mu.Lock()
		got[w] = [2]int{lo, hi}
		mu.Unlock()
	})
	for w := 0; w < 5; w++ {
		want := [2]int{w * 22 / 5, (w + 1) * 22 / 5}
		if got[w] != want {
			t.Fatalf("chunk %d ran [%d,%d), want [%d,%d)", w, got[w][0], got[w][1], want[0], want[1])
		}
	}
}

// TestWorkerPoolPollsBeforeParking pins the bounded poll: a pool polls only
// when every chunk has a processor of its own, and await hands over what the
// channel holds — a value, a close, or a value that arrives after the polls
// ran out — whatever the bound.
func TestWorkerPoolPollsBeforeParking(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	fits, over := newWorkerPool(procs-1), newWorkerPool(procs)
	defer fits.close()
	defer over.close()
	if fits.spin != spinPolls || over.spin != 0 {
		t.Fatalf("GOMAXPROCS %d: a pool %d wide polls %d times, one %d wide %d; want %d and 0",
			procs, fits.width(), fits.spin, over.width(), over.spin, spinPolls)
	}
	for _, spin := range []int{0, 3, spinPolls} {
		ch := make(chan int, 1)
		ch <- 7
		if v, ok := await(ch, spin); v != 7 || !ok {
			t.Fatalf("spin %d: await = %d, %v on a full channel", spin, v, ok)
		}
		go func() { ch <- 8 }()
		if v, ok := await(ch, spin); v != 8 || !ok {
			t.Fatalf("spin %d: await = %d, %v on a late send", spin, v, ok)
		}
		close(ch)
		if _, ok := await(ch, spin); ok {
			t.Fatalf("spin %d: await reported a value on a closed channel", spin)
		}
	}
}
