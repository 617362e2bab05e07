package sim

import (
	"fmt"
	"math"
	"time"

	"vinfra/internal/shard"
)

// WithRegionShards partitions the world into a cols x rows grid of
// shard-owned cell rectangles (cells of side cellSize, which must be at
// least the medium's interference radius) and gives each shard its own
// Medium from factory, replacing the medium handed to NewEngine. Shards
// are what parallelises Deliver: each round, after mobility and the
// engine's one Transmit fan-out, every alive node is assigned to the shard
// owning its cell and each shard medium delivers to its residents only,
// with boundary-band transmissions (cells within one cell — i.e. within
// the interference radius — of a shard edge) copied to the neighboring
// shards before delivery. Merges are keyed by (cell, node) order: resident
// views, candidate transmissions and receptions are all assembled by
// walking the alive list in NodeID order, so the output is byte-identical
// to the single-medium engine for any shard count — provided the Medium
// derives each reception only from the receiver, the round and the
// transmissions within the interference radius (the radio.Medium contract;
// see the Medium docs in types.go).
//
// Under WithParallel the shard mediums deliver concurrently on the
// engine's persistent worker runtime (one chunk per shard by default, or
// chunked over WithWorkers workers) and the partition pass itself fans out
// as a per-chunk counting sort; without it they run sequentially,
// byte-identical either way. A 1x1 grid is the single-medium engine: its
// one shard reads the engine's own views, with no partition and no copies.
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
// only a plane of two or more shards holds a partition plan and per-shard
// view buffers (reused across rounds: the steady-state sharded loop
// allocates nothing of its own).
type shardPlane struct {
	mediums []Medium

	// The WithRegionShards grid, 0x0 without it: what snapshots record.
	cols, rows int
	plan       *shard.Plan

	// Per-shard views, rebuilt (in NodeID order) every round.
	infos [][]NodeInfo     // each shard medium's view of its residents
	cands [][]Transmission // candidate transmissions per shard (own + halo)

	cellX, cellY []int64     // per-alive-index cell coords, one partition pass
	rxs          []Reception // merged receptions, indexed by NodeID
	halo         int         // boundary-band copies scattered this round

	// Partition scratch, reused across rounds: the counting-sort state each
	// partition chunk owns. owner holds every alive node's shard (computed
	// once in the count phase, read in the write phase);
	// bounds/counts/offs are per-chunk — chunk w touches only bounds[w],
	// counts[w] and offs[w], so the phases run race-free on the worker
	// runtime and the merged resident views are NodeID-ordered for any
	// chunk count.
	owner  []int32
	bounds []cellBounds
	counts [][]int32
	offs   [][]int32

	// Cached fan-out closures (the engine's mobFn idiom: building them per
	// round would allocate because the worker handoff moves them to the
	// heap).
	deliverFn func(w, lo, hi int)
	cellFn    func(w, lo, hi int)
	countFn   func(w, lo, hi int)
	writeFn   func(w, lo, hi int)
}

// cellBounds is one partition chunk's occupied-cell bounding box.
type cellBounds struct {
	minCX, minCY, maxCX, maxCY int64
}

// propagate computes round r's receptions, indexed by NodeID, from the
// round's merged transmission list. This is the one place a single medium
// and a shard grid part ways: one shard owns every node, so its view is
// the engine's own — the NodeInfo slice, txs and the medium's returned
// slice, with nothing partitioned, scattered or copied — while two or more
// partition the alive list, scatter txs with their halo, deliver per shard
// and merge.
func (sp *shardPlane) propagate(e *Engine, r Round, txs []Transmission) []Reception {
	if len(sp.mediums) == 1 {
		rxs := sp.mediums[0].Deliver(r, txs, e.info)
		if len(rxs) != len(e.nodes) {
			panic(fmt.Sprintf("sim: medium returned %d receptions for %d nodes", len(rxs), len(e.nodes)))
		}
		return rxs
	}
	start := time.Now() //detlint:walltime partition cost is a Measured perf column (E14), never state
	sp.partition(e)
	e.partTime += time.Since(start) //detlint:walltime see above
	sp.scatter(txs)
	sp.deliver(e, r)
	return sp.rxs
}

// partition assigns every alive node to the shard owning its post-mobility
// cell. Fitting the shard grid to the occupied cell bounding box each
// round keeps the split meaningful under mobility and churn. The pass
// scales with cores instead of devices: the cell/bounds scan, the
// per-chunk counting sort and the resident writes all fan out over the
// worker runtime in contiguous alive-list chunks (one chunk, inline,
// without WithParallel), and because the alive list is NodeID-ordered and
// chunk w's residents land at offsets computed from the chunks before it,
// each shard's resident view is NodeID-ordered by construction — identical
// for every chunk count, so sharded≡sequential holds for any worker width.
func (sp *shardPlane) partition(e *Engine) {
	shards := len(sp.mediums)
	for s := 0; s < shards; s++ {
		sp.cands[s] = sp.cands[s][:0]
		sp.infos[s] = sp.infos[s][:0]
	}
	n := len(e.alive)
	if n == 0 {
		return
	}
	k := min(e.fanout(), n)

	if cap(sp.cellX) < n {
		sp.cellX = make([]int64, n)
		sp.cellY = make([]int64, n)
		sp.owner = make([]int32, n)
	}
	sp.cellX, sp.cellY, sp.owner = sp.cellX[:cap(sp.cellX)], sp.cellY[:cap(sp.cellY)], sp.owner[:cap(sp.owner)]
	for len(sp.bounds) < k {
		sp.bounds = append(sp.bounds, cellBounds{})
		sp.counts = append(sp.counts, make([]int32, shards))
		sp.offs = append(sp.offs, make([]int32, shards))
	}

	// Phase 1: cell coordinates plus a per-chunk bounding box.
	if sp.cellFn == nil {
		sp.cellFn = func(w, lo, hi int) {
			b := cellBounds{math.MaxInt64, math.MaxInt64, math.MinInt64, math.MinInt64}
			for i := lo; i < hi; i++ {
				cx, cy := sp.plan.CellOf(e.info[e.alive[i].id].At)
				sp.cellX[i], sp.cellY[i] = cx, cy
				if cx < b.minCX {
					b.minCX = cx
				}
				if cx > b.maxCX {
					b.maxCX = cx
				}
				if cy < b.minCY {
					b.minCY = cy
				}
				if cy > b.maxCY {
					b.maxCY = cy
				}
			}
			sp.bounds[w] = b
		}
	}
	e.runChunks(n, k, sp.cellFn)
	b := sp.bounds[0]
	for _, c := range sp.bounds[1:k] {
		if c.minCX < b.minCX {
			b.minCX = c.minCX
		}
		if c.maxCX > b.maxCX {
			b.maxCX = c.maxCX
		}
		if c.minCY < b.minCY {
			b.minCY = c.minCY
		}
		if c.maxCY > b.maxCY {
			b.maxCY = c.maxCY
		}
	}
	sp.plan.Fit(b.minCX, b.minCY, b.maxCX, b.maxCY)

	// Phase 2: counting sort — each chunk bins its own nodes by owner.
	if sp.countFn == nil {
		sp.countFn = func(w, lo, hi int) {
			counts := sp.counts[w]
			for s := range counts {
				counts[s] = 0
			}
			for i := lo; i < hi; i++ {
				s := sp.plan.Owner(sp.cellX[i], sp.cellY[i])
				sp.owner[i] = int32(s)
				counts[s]++
			}
		}
	}
	e.runChunks(n, k, sp.countFn)

	// Sequential seam: per-(chunk, shard) write offsets and exact resident
	// lengths. O(k*shards), independent of the device count.
	for s := 0; s < shards; s++ {
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
		sp.infos[s] = sp.infos[s][:tot]
	}

	// Phase 3: every chunk writes its residents at its own offsets —
	// chunk w's slots in shard s start where chunk w-1's ended, so the
	// merged order is exactly the alive list's NodeID order.
	if sp.writeFn == nil {
		sp.writeFn = func(w, lo, hi int) {
			offs := sp.offs[w]
			for i := lo; i < hi; i++ {
				s := sp.owner[i]
				j := offs[s]
				offs[s] = j + 1
				sp.infos[s][j] = e.info[e.alive[i].id]
			}
		}
	}
	e.runChunks(n, k, sp.writeFn)
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
// merges the shard receptions into the NodeID-indexed slice the engine
// fans Receive out over — each shard writes only its own residents' slots,
// so a parallel run touches disjoint state per worker. Dead (or
// never-resident) nodes get the empty reception, exactly like a single
// Medium's output.
func (sp *shardPlane) deliver(e *Engine, r Round) {
	n := len(e.nodes)
	if cap(sp.rxs) < n {
		sp.rxs = make([]Reception, n)
	}
	sp.rxs = sp.rxs[:n]
	for i := range sp.rxs {
		sp.rxs[i] = Reception{Round: r}
	}
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
				for i := range res {
					sp.rxs[res[i].ID] = out[i]
				}
			}
		}
	}
	e.runChunks(len(sp.mediums), e.shardFanout(), sp.deliverFn)
}
