// Package radio implements the collision-prone wireless medium of Section 2:
// a quasi-unit-disk channel in which a receiver hears a broadcast iff the
// transmitter is within broadcast radius R1 and no other node within
// interference radius R2 of the receiver broadcasts in the same slot.
// Before the collision-freedom round r_cf, an Adversary may additionally
// drop arbitrary messages at arbitrary receivers (non-uniformly), and force
// spurious collision-detector indications (which the configured cd.Detector
// suppresses once it becomes accurate).
//
// Delivery scales to large deployments: instead of every receiver scanning
// every transmission (O(receivers x transmissions) per round), the medium
// stamps each of the round's transmissions into the 3x3 block of R2-sized
// cells around its origin (txGrid), so a receiver finds every transmission
// that can reach or interfere with it by flooring its own position once and
// reading one cell. Rounds with only a handful of transmissions are scanned
// — Deliver picks per round, from the round's size. Either way a receiver
// stops at its decision point: once one other transmission within R1 and a
// second within R2 (or its own) have been seen, no further candidate can
// change what it hears or what its detector is told. A cell lists the
// transmissions originating in it before its neighbours', so the nearest
// come first and the decision point arrives after a few candidates. A
// silent round — no transmissions — skips the candidates altogether: every
// reception is the detector's verdict on no loss. A Medium delivers on the
// calling goroutine; the unit of parallel delivery is the region shard
// (sim.WithRegionShards), each with a Medium of its own. All randomness is
// derived per (round, receiver), so every arrangement — scan or grid, one
// medium or one per shard — produces identical receptions for the same
// seed.
//
// The steady-state delivery loop touches only flat, medium-owned memory
// and allocates nothing of its own: the reception slice, the stamped grid
// (pointer-free int32 arrays, rebuilt in place and sized to the round's
// transmissions, not to the world) and the sender order live on the Medium;
// a receiver's own transmission is found by walking the NodeID-ordered
// transmissions alongside the NodeID-ordered receivers; candidates are
// classified by index and counted, never copied; and the per-receiver
// random stream is keyed only when something actually draws from it. Empty
// receptions carry nil message slices; a non-empty one is a window into one
// per-round arena the medium owns, the round's messages in transmission
// order, cleared and refilled at the next Deliver — receivers read their
// messages during Receive and copy what they keep (the sim.Reception
// contract) — so once its buffers have grown to the world's busiest round a
// medium delivers without allocating.
package radio

import (
	"fmt"
	"math"
	"sort"

	"vinfra/internal/cd"
	"vinfra/internal/det"
	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

// Adversary injects the arbitrary, unpredictable message loss the model
// permits before round r_cf. Implementations carry their own horizon and
// must become harmless (identity Filter, no forced collisions) from r_cf
// onward.
//
// One Adversary value is typically shared by every shard medium of a
// region-sharded engine, whose Deliver calls run concurrently under
// sim.WithParallel and see only their own residents — so implementations
// must be safe for concurrent use and must not depend on call order; derive
// any randomness deterministically from (round, receiver) as RandomLoss
// does.
type Adversary interface {
	// Filter returns the subset of deliverable transmissions actually
	// delivered to the receiver (currently located at) in round r.
	// deliverable is never empty — a receiver that heard nothing has
	// nothing to filter, and the medium does not call Filter for it — and
	// never includes the receiver's own transmission (a node always hears
	// itself). Filter must be pure: a function of its arguments and the
	// adversary's configuration, which is what lets the medium skip the
	// calls that cannot matter. It must return a subset of deliverable,
	// never a transmission it was not handed, and must not mutate
	// deliverable; it may return it unchanged. The position lets spatial
	// adversaries (the jammers of internal/faults) target grid cells and
	// regions rather than node identities.
	Filter(r sim.Round, receiver sim.NodeID, at geo.Point, deliverable []sim.Transmission) []sim.Transmission
	// ForceCollision reports whether to request a spurious collision
	// indication at the receiver (located at) in round r.
	ForceCollision(r sim.Round, receiver sim.NodeID, at geo.Point) bool
}

// path is how Deliver finds the transmissions relevant to each receiver:
// the scan and the grid produce identical receptions and differ only in
// cost. A Medium chooses per round (pathAuto, the zero value: scan small
// rounds, grid the rest; see autoIndexMinTxs). The other two exist for this
// package's tests, which pin one through export_test.go — the scan as the
// reference, the grid however small the round. A round the grid cannot
// hold (see txGrid) is scanned regardless.
type path uint8

const (
	pathAuto path = iota
	pathScan
	pathGrid
)

// autoIndexMinTxs is the transmission count below which Deliver scans:
// finding a receiver's cell costs two floors and a table read, about what
// comparing its distance to a handful of transmissions costs, and a round
// that sparse gives the grid nothing to prune. Measured with both paths
// stopping at the decision point (uniform receivers, R2 = 20, a 90- and a
// 400-unit world; medians of three 1 s runs on a 2-core x86 host): at 64-900
// receivers grid/scan is 0.95-1.18x at 6 transmissions, 0.76-0.96x at 8 and
// 0.54-0.98x at 12; at 100k receivers it is 1.09-1.17x at 6, 0.93-1.12x at 8
// and 0.84-1.03x at 12; BenchmarkDeliverGrid10k's 10k nodes are ~40x. The
// exit cuts both paths' work per receiver alike, so the crossover stayed
// where it was measured before it (the parent build gave 0.74-1.23x at 6,
// 0.63-1.12x at 8) and so did the constant.
// autoIndexMinWork is the receivers-times-transmissions product below which
// building the grid costs more than the whole scan (16 receivers: the scan
// wins at every transmission count up to 16, by 1.3-1.8x).
const (
	autoIndexMinWork = 1 << 10
	autoIndexMinTxs  = 8
)

// Config parameterizes a Medium.
type Config struct {
	Radii    geo.Radii
	Detector cd.Detector
	// Adversary may be nil for a well-behaved channel. Its Filter is
	// called only with a non-empty deliverable set, must be pure and
	// returns a subset of it (see Adversary); the slice it is handed is
	// medium-owned scratch that implementations must not retain past the
	// call. Shard mediums share one value and call it concurrently, so it
	// must be safe for concurrent use.
	Adversary Adversary
	// GrayZoneDeliveryProb is the probability that an uncontended
	// transmission from the gray zone (between R1 and R2) is delivered
	// anyway. The quasi-unit-disk model leaves this region unspecified;
	// the default 0 is the conservative reading.
	GrayZoneDeliveryProb float64
	// Seed drives the medium's own randomness (gray-zone delivery and
	// detector noise). Defaults to 1 via NewMedium. Draws are keyed by
	// (Seed, round, receiver), so they do not depend on the order in
	// which receivers are processed.
	Seed int64
}

// Medium implements sim.Medium with quasi-unit-disk propagation and
// collision-detector synthesis.
//
// A Medium carries reusable per-round delivery state, so a single Medium
// must not have Deliver invoked concurrently (one engine, or one region
// shard, calling it once per round — the sim.Medium contract — is the
// intended use). The returned reception slice, and every Msgs slice in it,
// is valid until the next Deliver call.
type Medium struct {
	cfg Config
	// force pins the delivery path; only export_test.go sets it.
	force path

	// Per-round reusable state, rebuilt in place every round: the reception
	// slice handed back to the engine, the arena its Msgs windows share (the
	// round's messages, one per transmission), the stamped transmission grid,
	// and the sender walk.
	out   []sim.Reception
	arena []sim.Message
	grid  txGrid
	own   senderWalk

	// deliverable is the one-element scratch handed to Adversary.Filter.
	deliverable []sim.Transmission

	// The receiver randomness (gray-zone delivery and detector noise) is a
	// det.Stream keyed to (seed, round, receiver) — on the first draw, not
	// per receiver: most receivers never draw, and the key is a three-fold
	// hash. rnd is one closure per medium, bound by NewMedium, that reads
	// the current round and receiver from these fields; handing a fresh
	// closure to Detector.Report per receiver would allocate.
	rng   det.Stream
	keyed bool
	round sim.Round
	rxID  sim.NodeID
	rnd   func() float64

	// examined counts the candidates receive has looked at, filtered the
	// Adversary.Filter calls. They are measurements, not state: never part
	// of a snapshot, read only by this package's tests.
	examined int
	filtered int
}

var _ sim.Medium = (*Medium)(nil)

// NewMedium validates cfg and returns a Medium.
func NewMedium(cfg Config) (*Medium, error) {
	if err := cfg.Radii.Validate(); err != nil {
		return nil, fmt.Errorf("radio: %w", err)
	}
	if cfg.Detector == nil {
		return nil, fmt.Errorf("radio: config requires a collision detector")
	}
	if cfg.GrayZoneDeliveryProb < 0 || cfg.GrayZoneDeliveryProb > 1 {
		return nil, fmt.Errorf("radio: GrayZoneDeliveryProb = %v out of [0,1]", cfg.GrayZoneDeliveryProb)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	m := &Medium{cfg: cfg, deliverable: make([]sim.Transmission, 0, 1)}
	m.grid.inv = 1 / cfg.Radii.R2
	m.rnd = func() float64 {
		if !m.keyed {
			m.rng.Reseed(m.cfg.Seed, int64(m.round), int64(m.rxID))
			m.keyed = true
		}
		return m.rng.Float64()
	}
	return m, nil
}

// MustMedium is NewMedium for static configurations known to be valid; it
// panics on error. Intended for tests, examples and benchmarks.
func MustMedium(cfg Config) *Medium {
	m, err := NewMedium(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Deliver implements sim.Medium. For each listed receiver it computes the
// physically deliverable set, applies the adversary, and synthesizes the
// collision-detector indication from the ground-truth losses. The engine
// lists only devices whose radio is on; a caller of its own that lists a
// dead one (Alive false) gets the empty reception for it. The returned slice
// and the messages it holds are medium-owned and reused on the next call.
func (m *Medium) Deliver(r sim.Round, txs []sim.Transmission, rxs []sim.NodeInfo) []sim.Reception {
	if cap(m.out) < len(rxs) {
		// Headroom: a shard's resident count drifts from round to round and
		// a churning world attaches nodes one at a time; an exact fit would
		// reallocate on every new maximum.
		m.out = make([]sim.Reception, len(rxs), len(rxs)+len(rxs)/8)
	}
	if len(rxs) < len(m.out) {
		// A shorter receiver list than last round's (devices fell asleep):
		// the entries past it would otherwise hold stale windows.
		clear(m.out[len(rxs):])
	}
	m.out = m.out[:len(rxs)]
	out := m.out
	// Last round's messages are dead: drop them for the GC, and lay this
	// round's out in transmission order.
	clear(m.arena)
	m.arena = m.arena[:0]
	for i := range txs {
		m.arena = append(m.arena, txs[i].Msg)
	}

	m.round = r

	if len(txs) == 0 {
		// A silent round: nobody transmits, so nothing is heard or lost and
		// a reception is only the detector's verdict on whatever the
		// adversary forces — no sender walk, no grid, no candidates.
		for i := range rxs {
			rx := &rxs[i]
			if !rx.Alive {
				out[i] = sim.Reception{}
				continue
			}
			m.conclude(&out[i], r, nil, rx, -1, 0, 0, -1)
		}
		return out
	}

	gridded := m.force == pathGrid ||
		m.force == pathAuto && len(txs) >= autoIndexMinTxs && len(txs)*len(rxs) >= autoIndexMinWork
	gridded = gridded && m.grid.stamp(txs)
	m.own.reset(txs)

	for i := range rxs {
		rx := &rxs[i]
		if !rx.Alive {
			out[i] = sim.Reception{}
			continue
		}
		// A scanned round's candidates are every transmission; the sender
		// order happens to list each exactly once.
		cands := m.own.order
		if gridded {
			cands = m.grid.at(rx.At)
		}
		m.receive(&out[i], r, txs, cands, rx)
	}
	return out
}

// receive computes one receiver's reception into out from cands, the
// indices (into txs, in any order) of a superset of the transmissions within
// R2 of it — the receiver's grid cell, or every transmission on a scanned
// round. Candidates are classified by exact distance, so both give identical
// receptions. The receiver's own transmission is found by sender identity
// rather than among the candidates: the half-duplex rule must hold whatever
// position the transmission claims to originate from.
func (m *Medium) receive(out *sim.Reception, r sim.Round, txs []sim.Transmission, cands []int32, rx *sim.NodeInfo) {
	own := m.own.of(txs, rx.ID)

	// Count the other nodes' transmissions within R1 and in the gray zone.
	// A message can only get through when there is exactly one of them, so
	// remembering the last index seen is remembering that one.
	r1sq, r2sq := m.cfg.Radii.R1*m.cfg.Radii.R1, m.cfg.Radii.R2*m.cfg.Radii.R2
	inR1, gray, sole := 0, 0, int32(-1)
	examined := len(cands)
	for k, i := range cands {
		tx := &txs[i]
		if tx.Sender == rx.ID {
			continue
		}
		d2 := tx.From.Dist2(rx.At)
		switch {
		case d2 <= r1sq:
			inR1++
			sole = i
		case d2 <= r2sq:
			gray++
			sole = i
		default:
			continue
		}
		// The decision point: one contender within R1 and either a second
		// within R2 or the receiver's own transmission. Nothing is
		// deliverable from here on and both losses are certain, whatever the
		// remaining candidates are; sole is never read, and nothing drew
		// from the receiver's stream, so stopping changes no reception.
		if inR1 > 0 && (inR1+gray >= 2 || own >= 0) {
			examined = k + 1
			break
		}
	}
	m.examined += examined
	m.conclude(out, r, txs, rx, own, inR1, inR1+gray, sole)
}

// conclude turns one receiver's counts into its reception: own is the
// receiver's own transmission (-1 when it is listening), inR1 and othersInR2
// count the other nodes' transmissions within R1 and within R2 of it, and
// sole is the last of those seen — the one that may get through when
// othersInR2 is 1.
func (m *Medium) conclude(out *sim.Reception, r sim.Round, txs []sim.Transmission, rx *sim.NodeInfo, own, inR1, othersInR2 int, sole int32) {
	// Randomness for this receiver (gray-zone delivery and detector
	// noise) is keyed by (seed, round, receiver), so it is independent of
	// the order receivers are processed in.
	m.rxID, m.keyed = rx.ID, false

	// Physical delivery: a node always hears its own broadcast. A message
	// from another node gets through only when it is the sole transmission
	// within R2 of the receiver AND the receiver itself is not
	// transmitting — the delivery guarantee of Section 2 requires that "no
	// node within distance R2 of pj broadcasts", and pj is within R2 of
	// itself (half-duplex). Gray-zone delivery is probabilistic
	// (default: never).
	deliverable := m.deliverable[:0]
	if othersInR2 == 1 && own < 0 {
		if inR1 == 1 || (m.cfg.GrayZoneDeliveryProb > 0 && m.rnd() < m.cfg.GrayZoneDeliveryProb) {
			deliverable = append(deliverable, txs[sole])
		}
	}

	// Adversarial loss (only effective before the adversary's horizon).
	// Filter returns a subset of what it is handed, so filtering nothing
	// is not worth the call.
	delivered := deliverable
	spurious := false
	if adv := m.cfg.Adversary; adv != nil {
		if len(deliverable) > 0 {
			m.filtered++
			delivered = adv.Filter(r, rx.ID, rx.At, deliverable)
		}
		spurious = adv.ForceCollision(r, rx.ID, rx.At)
	}

	// Ground truth for the collision detector: a loss is any transmission
	// from another node within the relevant radius that was not delivered,
	// whatever the cause (contention, gray zone, or adversary). Filter
	// returns a subset of the at most one deliverable transmission, so
	// either that one got through and nothing was lost, or nothing got
	// through and everything in range was.
	lost := len(delivered) == 0
	lostR1 := lost && inR1 > 0
	lostR2 := lost && othersInR2 > 0

	collision := m.cfg.Detector.Report(r, lostR1, lostR2, spurious, m.rnd)

	// An empty reception carries nil Msgs — the common case at scale
	// (collisions silence most receivers). A non-empty one holds one
	// message: the receiver's own, since a transmitter hears nothing else,
	// or else the sole transmission Filter let through. It is that
	// transmission's entry of the round's arena, a window capped at its
	// length and shared by every receiver that heard the transmission.
	if own < 0 && len(delivered) == 0 {
		*out = sim.Reception{Collision: collision}
		return
	}
	i := own
	if i < 0 {
		i = int(sole)
	}
	*out = sim.Reception{Msgs: m.arena[i : i+1 : i+1], Collision: collision}
}

// senderWalk answers "which transmission did this receiver send" without a
// map. The engine hands Deliver transmissions and receivers both in NodeID
// order, so one cursor over the transmissions advances alongside the
// receiver loop; callers that pass either list in another order (tests, a
// medium driven by hand) get the same answers from a sender-sorted index
// and a binary search whenever receiver IDs step backwards.
type senderWalk struct {
	order  []int32 // transmission indices by (Sender, index)
	cursor int     // first entry of order whose sender is >= last
	last   sim.NodeID
}

func (w *senderWalk) reset(txs []sim.Transmission) {
	w.order = w.order[:0]
	sorted := true
	for i := range txs {
		w.order = append(w.order, int32(i))
		sorted = sorted && (i == 0 || txs[i-1].Sender <= txs[i].Sender)
	}
	if !sorted {
		sort.SliceStable(w.order, func(a, b int) bool {
			return txs[w.order[a]].Sender < txs[w.order[b]].Sender
		})
	}
	w.cursor, w.last = 0, math.MinInt
}

// of returns the index of the last transmission in txs sent by id (a sender
// listed twice is heard through its later entry), or -1 if id is listening.
func (w *senderWalk) of(txs []sim.Transmission, id sim.NodeID) int {
	k := w.cursor
	if id < w.last {
		k = sort.Search(len(w.order), func(k int) bool { return txs[w.order[k]].Sender >= id })
	}
	for k < len(w.order) && txs[w.order[k]].Sender < id {
		k++
	}
	w.cursor, w.last = k, id
	own := -1
	for ; k < len(w.order) && txs[w.order[k]].Sender == id; k++ {
		own = int(w.order[k])
	}
	return own
}

// txGrid is one round's transmissions stamped into a dense grid of R2-sized
// cells: transmission i, whose origin lies in cell (x, y), is listed in the
// nine cells (x-1..x+1, y-1..y+1), so the cell holding a receiver lists
// every transmission within R2 of it — what the nine probes of a bucketed
// index would collect, in one lookup. The table is a compressed sparse row
// over the bounding box of the origins' cells plus a one-cell margin: cell c
// lists items[start[c]:start[c+1]] — first the transmissions whose origin
// lies in c, then those stamped into it from the eight cells around, each
// group in increasing index order. Nearest first is what lets receive reach
// its decision point after a few candidates; delivery reads counts and a
// candidate that is unique when it is read, so the order changes cost,
// never a reception. Nothing in it is a pointer.
//
// Its size follows the round, not the world: at most gridCellsPerTx cells
// per transmission (plus gridMinCells). When the origins spread over more
// cells than that, the grid's cells become 2^shift R2-cells a side — a
// receiver then gets a superset of its 3x3 block, and since candidates are
// always classified by exact distance, coarsening changes cost, never a
// reception. An origin that is non-finite, or more than maxCell cells from
// zero (where float64 no longer resolves a cell), has no cell at all: a
// round carrying one is scanned.
type txGrid struct {
	inv        float64 // 1/R2
	minX, minY int64   // R2-cell of the grid's cell (1, 1)
	shift      uint
	cols, rows int64
	start      []int32
	items      []int32
	cells      []int64 // stamp scratch: each origin's (x, y)
}

const (
	gridCellsPerTx = 16
	gridMinCells   = 64
	maxCell        = 1 << 61
)

// cellOf returns the R2-cell containing p; ok is false when p has none.
func (g *txGrid) cellOf(p geo.Point) (x, y int64, ok bool) {
	fx, fy := math.Floor(p.X*g.inv), math.Floor(p.Y*g.inv)
	// Written so that NaN fails the test.
	if !(fx >= -maxCell && fx <= maxCell && fy >= -maxCell && fy <= maxCell) {
		return 0, 0, false
	}
	return int64(fx), int64(fy), true
}

// stamp rebuilds the grid over txs. It reports false, leaving the grid
// unusable for the round, when there is nothing to stamp or an origin has
// no cell.
func (g *txGrid) stamp(txs []sim.Transmission) bool {
	if len(txs) == 0 {
		return false
	}
	g.cells = g.cells[:0]
	minX, minY := int64(math.MaxInt64), int64(math.MaxInt64)
	maxX, maxY := int64(math.MinInt64), int64(math.MinInt64)
	for i := range txs {
		x, y, ok := g.cellOf(txs[i].From)
		if !ok {
			return false
		}
		g.cells = append(g.cells, x, y)
		minX, maxX = min(minX, x), max(maxX, x)
		minY, maxY = min(minY, y), max(maxY, y)
	}
	g.minX, g.minY = minX, minY

	// Extents are at most 2^62, so neither they nor — once each is within
	// the limit — their product can overflow; cell numbers are int32.
	limit := min(int64(len(txs))*gridCellsPerTx+gridMinCells, math.MaxInt32)
	for g.shift = 0; ; g.shift++ {
		g.cols = (maxX-minX)>>g.shift + 3
		g.rows = (maxY-minY)>>g.shift + 3
		if g.cols <= limit && g.rows <= limit && g.cols*g.rows <= limit {
			break
		}
	}
	n := int(g.cols * g.rows)
	if cap(g.start) < n+1 {
		g.start = make([]int32, n+1)
	}
	g.start = g.start[:n+1]
	clear(g.start)
	if cap(g.items) < 9*len(txs) {
		g.items = make([]int32, 9*len(txs))
	}
	g.items = g.items[:9*len(txs)]

	// Counting sort: count per cell into start[c+1], prefix-sum so start[c]
	// is where cell c begins, place transmissions using start[c] as the
	// write cursor — which leaves start[c] at the end of cell c, the start
	// of c+1 — and shift the table back by one. Placing every origin's own
	// cell in one pass and the eight around it in a second is what puts a
	// cell's own transmissions first.
	for i := range txs {
		c := g.corner(i)
		for row := 0; row < 3; row, c = row+1, c+g.cols {
			g.start[c+1]++
			g.start[c+2]++
			g.start[c+3]++
		}
	}
	for c := 0; c < n; c++ {
		g.start[c+1] += g.start[c]
	}
	for i := range txs {
		c := g.corner(i) + g.cols + 1
		g.items[g.start[c]] = int32(i)
		g.start[c]++
	}
	around := [8]int64{0, 1, 2, g.cols, g.cols + 2, 2 * g.cols, 2*g.cols + 1, 2*g.cols + 2}
	for i := range txs {
		c := g.corner(i)
		for _, d := range around {
			g.items[g.start[c+d]] = int32(i)
			g.start[c+d]++
		}
	}
	copy(g.start[1:], g.start[:n])
	g.start[0] = 0
	return true
}

// corner returns the lowest-numbered cell of transmission i's 3x3 block.
func (g *txGrid) corner(i int) int64 {
	x, y := (g.cells[2*i]-g.minX)>>g.shift, (g.cells[2*i+1]-g.minY)>>g.shift
	return y*g.cols + x
}

// at returns the transmissions stamped into the cell containing p: every
// transmission within R2 of p, and possibly more.
func (g *txGrid) at(p geo.Point) []int32 {
	x, y, ok := g.cellOf(p)
	if !ok {
		return nil
	}
	// Cell (0, 0) is the margin below and left of the origins' box; the
	// signed shift floors, so positions left of the box land at -1 or less.
	x, y = (x-g.minX)>>g.shift+1, (y-g.minY)>>g.shift+1
	if x < 0 || x >= g.cols || y < 0 || y >= g.rows {
		return nil
	}
	c := y*g.cols + x
	return g.items[g.start[c]:g.start[c+1]]
}

// HashKeys folds keys through the SplitMix64 finalizer into one well-spread
// value. It is det.HashKeys, the single keyed-hash primitive of the
// deterministic stack: the medium's per-receiver RNG streams, RandomLoss's
// per-message draws and the internal/faults adversaries' choices all derive
// from it, so their determinism contracts stay in lockstep (and cannot
// silently drift apart across copies).
func HashKeys(keys ...int64) uint64 {
	return det.HashKeys(keys...)
}

// U01 maps a HashKeys value to a uniform draw in [0, 1) — det.U01, the
// other half of the stack's keyed-randomness primitive, shared for the same
// reason: RandomLoss's drop draws and the internal/faults adversaries'
// probability draws must use one mapping that cannot drift apart across
// copies.
func U01(h uint64) float64 {
	return det.U01(h)
}
