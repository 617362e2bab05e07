package sim

import "runtime"

// workerPool is the engine's persistent worker runtime: a fixed set of
// long-lived helper goroutines that execute contiguous index chunks of a
// fan-out function. It replaces a per-round goroutine spawn with a
// round-barrier handoff — one buffered channel send per busy helper and one
// completion receive per chunk — so a steady-state round performs no
// goroutine creation, no WaitGroup churn and no allocation.
//
// Determinism is untouched by construction: the pool only decides *where*
// a chunk runs, never what the chunks are (run computes the same balanced
// chunk boundaries for the same (n, k)), never how many there are (the
// engine decides k once per phase, from the phase's work — Engine.width —
// and hands the pool only fan-outs whose chunks are each worth a hand-off)
// and never how results merge (callers merge per-node or per-shard slots in
// NodeID order afterwards).
// The channel handoffs give the usual happens-before edges: a helper sees
// every write made before its task was sent, and the caller sees every
// helper write once run returns.
//
// A pool is owned by exactly one driving goroutine (the engine's Step
// loop): run is not reentrant and must not be called concurrently. Helpers
// park on their task channel between rounds (after a bounded poll, see
// spinPolls) and hold no engine state, so an idle pool costs only the parked
// goroutines; close releases them.
//
// A panic inside a chunk belongs to the caller of run, whichever goroutine
// the chunk happened to land on: a helper recovers it and reports it with
// the chunk's completion, and run raises it again on its own goroutine once
// every chunk is in — where a recover above Step (a service tenant's) can
// catch it. The pool stays usable.
type workerPool struct {
	helpers []chan poolTask
	done    chan chunkPanic
	spin    int // polls before either side of a hand-off parks; see spinPolls
}

// spinPolls bounds how long a side of a hand-off that finds its channel empty
// polls it before parking on it. Since width keeps small phases inline, the
// helper of a world whose rounds mostly are small (the 100k-device sharded
// city: 90 radio rounds a virtual round, the listeners awake in a few) is
// handed one big chunk a round and sits idle for the rest of it — long enough
// for its thread to park, so that the next hand-off pays a thread wake, which
// on a shared 2-vCPU host measured 100–250 µs of a ≈ 1 ms round (the driver's
// wait on done clustered there) and follows the host's load rather than the
// program's. A poll is ≈ 7 ns, so 20 000 is about the wake it saves: the idle
// gaps inside a round (≤ 30 µs) are always covered, a side idle for longer
// parks as before, and the most a hand-off can burn is what a wake would have
// cost. Polling is for pools whose every chunk has a processor of its own;
// with more chunks than GOMAXPROCS a polling goroutine would hold the
// processor the awaited one needs, and such a pool parks at once.
const spinPolls = 20000

// chunkPanic is one helper chunk's completion: the chunk's index and the
// value it panicked with, nil when it returned.
type chunkPanic struct {
	w     int
	value any
}

// poolTask is one chunk handoff: the fan-out function plus the chunk index
// and index range it should cover. The func value and plain ints copy into
// the channel's preallocated buffer, so sending a task allocates nothing.
type poolTask struct {
	fn     func(w, lo, hi int)
	w      int
	lo, hi int
}

// newWorkerPool starts helpers long-lived worker goroutines. The caller's
// own goroutine always runs chunk 0, so a pool with h helpers supports
// fan-outs up to h+1 chunks wide.
func newWorkerPool(helpers int) *workerPool {
	if helpers < 0 {
		helpers = 0
	}
	p := &workerPool{done: make(chan chunkPanic, helpers)}
	if helpers+1 <= runtime.GOMAXPROCS(0) {
		p.spin = spinPolls
	}
	for i := 0; i < helpers; i++ {
		ch := make(chan poolTask, 1)
		p.helpers = append(p.helpers, ch)
		go func() {
			for {
				t, ok := await(ch, p.spin)
				if !ok {
					return
				}
				p.done <- chunkPanic{t.w, t.call()}
			}
		}()
	}
	return p
}

// await receives from ch, polling it up to spin times before parking on it.
func await[T any](ch <-chan T, spin int) (v T, ok bool) {
	for ; spin > 0; spin-- {
		select {
		case v, ok = <-ch:
			return v, ok
		default:
		}
	}
	v, ok = <-ch
	return v, ok
}

// call runs the chunk and returns what it panicked with, if it did.
func (t poolTask) call() (panicked any) {
	defer func() { panicked = recover() }()
	t.fn(t.w, t.lo, t.hi)
	return nil
}

// width returns the widest fan-out the pool supports (helpers + the
// caller's goroutine).
func (p *workerPool) width() int { return len(p.helpers) + 1 }

// run executes fn over [0, n) split into k balanced contiguous chunks:
// chunk w covers [w*n/k, (w+1)*n/k), so chunk sizes differ by at most one
// and every chunk is non-empty when k <= n (the degenerate tiny last chunk
// of the old ceil-division split cannot occur). Chunks 1..k-1 are handed
// to parked helpers; chunk 0 runs on the caller's goroutine; run returns
// once every chunk is done. k is clamped to [1, min(n, width)]; with one
// chunk fn runs inline (fn(0, 0, n), even when n is 0).
func (p *workerPool) run(n, k int, fn func(w, lo, hi int)) {
	if k > n {
		k = n
	}
	if k > p.width() {
		k = p.width()
	}
	if k <= 1 {
		fn(0, 0, n)
		return
	}
	for w := 1; w < k; w++ {
		p.helpers[w-1] <- poolTask{fn: fn, w: w, lo: w * n / k, hi: (w + 1) * n / k}
	}
	first := chunkPanic{0, poolTask{fn: fn, hi: n / k}.call()}
	for w := 1; w < k; w++ {
		if c, _ := await(p.done, p.spin); c.value != nil && (first.value == nil || c.w < first.w) {
			first = c
		}
	}
	if first.value != nil {
		panic(first.value)
	}
}

// close releases the helper goroutines. The pool must be idle (no run in
// flight); after close it is unusable — the engine drops its reference and
// lazily builds a fresh pool if it steps again.
func (p *workerPool) close() {
	for _, ch := range p.helpers {
		close(ch)
	}
	p.helpers = nil
}
