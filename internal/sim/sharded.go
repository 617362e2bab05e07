package sim

import (
	"fmt"
	"math"
	"time"

	"vinfra/internal/geo"
	"vinfra/internal/shard"
)

// WithRegionShards partitions the world into a cols x rows grid of
// shard-owned cell rectangles (cells of side cellSize, which must be at
// least the medium's interference radius) and gives each shard its own
// Medium from factory, replacing the medium handed to NewEngine. Shards
// are what parallelises Deliver: each round, after mobility and the
// engine's one Transmit fan-out, every awake node is assigned to the shard
// owning its cell and each shard medium delivers to its residents only,
// with boundary-band transmissions (cells within one cell — i.e. within
// the interference radius — of a shard edge) copied to the neighboring
// shards before delivery. Merges are keyed by (cell, node) order: resident
// views, candidate transmissions and receptions are all assembled by
// walking the awake list in NodeID order, so the output is byte-identical
// to the single-medium engine for any shard count — provided the Medium
// derives each reception only from the receiver, the round and the
// transmissions within the interference radius (the radio.Medium contract;
// see the Medium docs in types.go).
//
// Under WithParallel the shard mediums deliver concurrently on the
// engine's persistent worker runtime (the shards chunked over as many
// workers as the awake receivers are worth, see Engine.width) and the
// partition pass itself fans out as a per-chunk counting sort; without it
// they run sequentially, byte-identical either way. A 1x1 grid is the
// single-medium engine: its one shard is handed the awake list as it
// stands, with no partition.
func WithRegionShards(cols, rows int, cellSize float64, factory func() Medium) Option {
	return func(e *Engine) {
		plan, err := shard.NewPlan(cellSize, cols, rows)
		if err != nil {
			panic("sim: WithRegionShards: " + err.Error())
		}
		if factory == nil {
			panic("sim: WithRegionShards requires a Medium factory")
		}
		sp := shardPlane{plan: plan, cols: cols, rows: rows}
		for i := 0; i < plan.Shards(); i++ {
			m := factory()
			if m == nil {
				panic("sim: WithRegionShards factory returned a nil Medium")
			}
			sp.mediums = append(sp.mediums, m)
		}
		sp.infos = make([][]NodeInfo, plan.Shards())
		sp.slots = make([][]int32, plan.Shards())
		sp.cands = make([][]Transmission, plan.Shards())
		e.plane = sp
	}
}

// RegionShards returns the number of region shards (0 when the engine was
// built without WithRegionShards).
func (e *Engine) RegionShards() int {
	return e.plane.cols * e.plane.rows
}

// shardPlane is the propagation step of a round: one Medium per shard.
// Every engine has one — NewEngine's medium is the one-shard plane — and
// only a plane of two or more shards holds a partition plan and the
// per-shard buffers that go with it. All of it is reused across rounds: the
// steady-state loop allocates nothing of its own.
type shardPlane struct {
	mediums []Medium

	// The WithRegionShards grid, 0x0 without it: what snapshots record.
	cols, rows int
	plan       *shard.Plan

	// Per-shard views, rebuilt (in NodeID order) every round. infos[s] is
	// the receiver list shard s's medium is handed — on the one-shard plane,
	// the whole awake list — and slots[s][j] the awake-list position of
	// infos[s][j], where its reception goes: the shards' slots are
	// consecutive windows of slotBuf, one entry per awake node between them.
	infos [][]NodeInfo
	slots [][]int32
	cands [][]Transmission // candidate transmissions per shard (own + halo)

	rxs  []Reception // merged receptions, positional over the awake list
	halo int         // boundary-band copies scattered this round

	// Partition scratch, reused across rounds: the counting-sort state each
	// partition chunk owns. owner holds every awake node's shard (computed
	// once in the count phase, read in the write phase); counts/offs are
	// per-chunk — chunk w touches only counts[w] and offs[w], so the phases
	// run race-free on the worker runtime and the merged resident views are
	// NodeID-ordered for any chunk count.
	owner   []int32
	slotBuf []int32
	counts  [][]int32
	offs    [][]int32
	// bounds holds this round's mobility chunks' bounding boxes of alive
	// positions, one per chunk (boxes sizes it, mobility's chunk w writes
	// bounds[w]) — the mobility pass's width, which need not be partition's.
	bounds []geo.Rect

	// Cached fan-out closures (the engine's mobFn idiom: building them per
	// round would allocate because the worker handoff moves them to the
	// heap).
	deliverFn func(w, lo, hi int)
	countFn   func(w, lo, hi int)
	writeFn   func(w, lo, hi int)
}

// boxes makes room for the k bounding boxes of a mobility pass k chunks wide.
func (sp *shardPlane) boxes(k int) {
	if cap(sp.bounds) < k {
		sp.bounds = make([]geo.Rect, k)
	}
	sp.bounds = sp.bounds[:k]
}

// mobility returns the mobility chunk of an engine with two or more shards:
// Engine.move's, which also stretches the chunk's bounding box over every
// alive node it walks, moved or not — the one time a round has each of those
// positions in hand. partition merges the boxes.
func (sp *shardPlane) mobility(e *Engine) func(w, lo, hi int) {
	return func(w, lo, hi int) {
		mr := e.movers[w]
		// The box in four locals, compared as stretch compares (a NaN
		// coordinate moves nothing): this is the 100k-node loop.
		minX, minY := math.Inf(1), math.Inf(1)
		maxX, maxY := math.Inf(-1), math.Inf(-1)
		for _, st := range e.alive[lo:hi] {
			at := &e.info[st.id].At
			if st.mover != nil {
				mr.cur = &st.rng
				*at = st.mover.Move(e.curRound, *at, mr.rnd)
			}
			if at.X < minX {
				minX = at.X
			}
			if at.Y < minY {
				minY = at.Y
			}
			if at.X > maxX {
				maxX = at.X
			}
			if at.Y > maxY {
				maxY = at.Y
			}
		}
		sp.bounds[w] = geo.Rect{Min: geo.Point{X: minX, Y: minY}, Max: geo.Point{X: maxX, Y: maxY}}
	}
}

// propagate computes round r's receptions from the round's merged
// transmission list: one per awake node, in awake-list order. This is the
// one place a single medium and a shard grid part ways: one shard owns every
// node, so it is handed the awake nodes' NodeInfos, txs as it stands, and
// its returned slice is the result — with every attached node awake that
// list is the engine's own NodeInfo slice, uncopied — while two or more
// partition the awake list, scatter txs with their halo, deliver per shard
// and merge.
func (sp *shardPlane) propagate(e *Engine, r Round, txs []Transmission) []Reception {
	if len(sp.mediums) == 1 {
		view := e.info
		if len(e.awake) != len(e.nodes) {
			view = sp.infos[0][:0]
			if n := len(e.awake); cap(view) < n {
				view = make([]NodeInfo, 0, n+n/8) // as rouse sizes the awake list
			}
			for _, st := range e.awake {
				view = append(view, e.info[st.id])
			}
			sp.infos[0] = view
		}
		rxs := sp.mediums[0].Deliver(r, txs, view)
		if len(rxs) != len(view) {
			panic(fmt.Sprintf("sim: medium returned %d receptions for %d receivers", len(rxs), len(view)))
		}
		return rxs
	}
	start := time.Now() //detlint:walltime partition cost is read by bench/ and visimd (Engine.PartitionTime), never state
	sp.partition(e)
	e.partTime += time.Since(start) //detlint:walltime see above
	sp.scatter(txs)
	sp.deliver(e)
	return sp.rxs
}

// partition assigns every awake node to the shard owning its post-mobility
// cell. Fitting the shard grid to the occupied cell bounding box each
// round keeps the split meaningful under mobility and churn — and the box
// is that of every alive node, asleep or not, so whether a device's radio
// is on never moves a shard edge: floor(x/cell) is monotone in x, hence the
// box's corner cells are the cells of the extreme positions, which the
// mobility pass has already found chunk by chunk (mobility). Sleepers are
// resident nowhere, and no reception is made for them. The pass scales with
// cores instead of devices: the per-chunk counting sort and the resident
// writes fan out over the worker runtime in contiguous chunks (one chunk,
// inline, when the awake list is not worth more), and because the awake
// list is NodeID-ordered and chunk w's residents land at offsets computed
// from the chunks before it, each shard's resident view is NodeID-ordered
// by construction — identical for every chunk count, so sharded≡sequential
// holds for any worker width.
func (sp *shardPlane) partition(e *Engine) {
	shards := len(sp.mediums)
	for s := 0; s < shards; s++ {
		sp.cands[s] = sp.cands[s][:0]
		sp.infos[s] = sp.infos[s][:0]
	}
	if len(e.alive) == 0 {
		return
	}
	b := sp.bounds[0]
	for _, c := range sp.bounds[1:] {
		b = stretch(b, c.Min, c.Max)
	}
	minCX, minCY := sp.plan.CellOf(b.Min)
	maxCX, maxCY := sp.plan.CellOf(b.Max)
	sp.plan.Fit(minCX, minCY, maxCX, maxCY)

	// One width for both fanned-out passes and the seam between them: all
	// three index counts and offs by chunk.
	n := len(e.awake)
	k := e.width(n)
	for w := len(sp.counts); w < k; w++ {
		sp.counts = append(sp.counts, make([]int32, shards))
		sp.offs = append(sp.offs, make([]int32, shards))
	}
	if cap(sp.owner) < n {
		sp.owner = make([]int32, n)
		sp.slotBuf = make([]int32, n)
	}
	sp.owner = sp.owner[:cap(sp.owner)]

	// Counting sort — each chunk bins its own awake nodes by owner.
	if sp.countFn == nil {
		sp.countFn = func(w, lo, hi int) {
			counts := sp.counts[w]
			for s := range counts {
				counts[s] = 0
			}
			for i, st := range e.awake[lo:hi] {
				s := sp.plan.OwnerOf(e.info[st.id].At)
				sp.owner[lo+i] = int32(s)
				counts[s]++
			}
		}
	}
	e.runChunks(n, k, sp.countFn)

	// Sequential seam: per-(chunk, shard) write offsets and exact resident
	// lengths. O(k*shards), independent of the device count.
	for s, base := 0, 0; s < shards; s++ {
		tot := 0
		for w := 0; w < k; w++ {
			sp.offs[w][s] = int32(tot)
			tot += int(sp.counts[w][s])
		}
		if cap(sp.infos[s]) < tot {
			// Headroom: resident counts drift as nodes roam, and an exact
			// fit would reallocate on every new maximum.
			sp.infos[s] = make([]NodeInfo, tot, tot+tot/8)
		}
		sp.infos[s], sp.slots[s] = sp.infos[s][:tot], sp.slotBuf[base:base+tot]
		base += tot
	}

	// Every chunk writes its residents at its own offsets — chunk w's slots
	// in shard s start where chunk w-1's ended, so the merged order is
	// exactly the awake list's NodeID order.
	if sp.writeFn == nil {
		sp.writeFn = func(w, lo, hi int) {
			offs := sp.offs[w]
			for i, st := range e.awake[lo:hi] {
				s := sp.owner[lo+i]
				j := offs[s]
				offs[s] = j + 1
				sp.infos[s][j] = e.info[st.id]
				sp.slots[s][j] = int32(lo + i)
			}
		}
	}
	e.runChunks(n, k, sp.writeFn)
}

// stretch grows b to reach down to lo and up to hi. A NaN coordinate
// compares false and leaves b alone.
func stretch(b geo.Rect, lo, hi geo.Point) geo.Rect {
	if lo.X < b.Min.X {
		b.Min.X = lo.X
	}
	if lo.Y < b.Min.Y {
		b.Min.Y = lo.Y
	}
	if hi.X > b.Max.X {
		b.Max.X = hi.X
	}
	if hi.Y > b.Max.Y {
		b.Max.Y = hi.Y
	}
	return b
}

// scatter hands every transmission to each shard whose rectangle its 3x3
// cell halo intersects: the owning shard always, plus the neighbors when
// the sender sits in the boundary band (within one cell of a shard edge).
// This is the round-edge boundary exchange — each shard medium sees a
// candidate superset covering the interference radius around every one of
// its residents. txs is NodeID-ordered, so each shard's candidate list is
// too (the deterministic merge key: cells ordered by their senders).
func (sp *shardPlane) scatter(txs []Transmission) {
	sp.halo = 0
	cols := sp.plan.Cols()
	for i := range txs {
		cx, cy := sp.plan.CellOf(txs[i].From)
		own := sp.plan.Owner(cx, cy)
		c0, c1, r0, r1 := sp.plan.HaloSpan(cx, cy)
		for sr := r0; sr <= r1; sr++ {
			for sc := c0; sc <= c1; sc++ {
				s := sr*cols + sc
				sp.cands[s] = append(sp.cands[s], txs[i])
				if s != own {
					sp.halo++
				}
			}
		}
	}
}

// deliver runs each shard medium over its residents and candidates and
// merges the shard receptions into the slice the engine fans Receive out
// over, positional over the awake list. Every awake node is resident in
// exactly one shard, so the shards between them write every entry, and each
// writes only its own residents' — a parallel run touches disjoint state per
// worker.
func (sp *shardPlane) deliver(e *Engine) {
	n := len(e.awake)
	if cap(sp.rxs) < n {
		sp.rxs = make([]Reception, n, len(e.nodes)) // as long as awake can get
	}
	if n < len(sp.rxs) {
		clear(sp.rxs[n:]) // what a longer list left behind: do not keep its Msgs alive
	}
	sp.rxs = sp.rxs[:n]
	if sp.deliverFn == nil {
		sp.deliverFn = func(_, lo, hi int) {
			for s := lo; s < hi; s++ {
				res := sp.infos[s]
				if len(res) == 0 {
					continue
				}
				out := sp.mediums[s].Deliver(e.curRound, sp.cands[s], res)
				if len(out) != len(res) {
					panic(fmt.Sprintf("sim: shard %d medium returned %d receptions for %d residents",
						s, len(out), len(res)))
				}
				for j, slot := range sp.slots[s] {
					sp.rxs[slot] = out[j]
				}
			}
		}
	}
	e.runChunks(len(sp.mediums), min(e.width(n), len(sp.mediums)), sp.deliverFn)
}
