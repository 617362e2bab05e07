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
// buckets the round's transmissions into a uniform grid with cell size R2
// (geo.CellIndex) and each receiver consults only its own and adjacent
// cells. A Medium delivers on the calling goroutine; the unit of parallel
// delivery is the region shard (sim.WithRegionShards), each with a Medium
// of its own. All randomness is derived per (round, receiver), so every
// arrangement — scan or grid, one medium or one per shard — produces
// identical receptions for the same seed.
//
// The steady-state delivery loop is also nearly allocation-free: the
// reception slice, the transmission index (rebuilt in place each round),
// the sender identity map and the per-receiver partition buffers live on
// the Medium, and empty receptions carry nil message slices. Only receivers
// that actually hear something allocate (their Msgs slices may be retained
// by nodes).
package radio

import (
	"fmt"

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
	// deliverable never includes the receiver's own transmission (a node
	// always hears itself). Implementations must not mutate deliverable;
	// they may return it unchanged. The position lets spatial adversaries
	// (the jammers of internal/faults) target grid cells and regions
	// rather than node identities.
	Filter(r sim.Round, receiver sim.NodeID, at geo.Point, deliverable []sim.Transmission) []sim.Transmission
	// ForceCollision reports whether to request a spurious collision
	// indication at the receiver (located at) in round r.
	ForceCollision(r sim.Round, receiver sim.NodeID, at geo.Point) bool
}

// DeliveryMode selects how the medium finds the transmissions relevant to
// each receiver. All modes produce identical receptions; they differ only
// in cost.
type DeliveryMode int

const (
	// ModeAuto (the default) scans on small rounds and switches to the
	// grid index once the round is large enough for the index to pay for
	// its construction.
	ModeAuto DeliveryMode = iota
	// ModeScan always uses the brute-force O(receivers x transmissions)
	// scan. It exists as the reference implementation for equivalence
	// tests and before/after benchmarks.
	ModeScan
	// ModeGrid always buckets transmissions into a geo.CellIndex with
	// cell size R2 and has each receiver consult only the 3x3 block of
	// cells around it.
	ModeGrid
)

// autoIndexMinWork is the receivers-times-transmissions product above which
// ModeAuto switches from the scan to the grid index, and autoIndexMinTxs is
// the transmission count below which scanning the tiny slice beats the nine
// cell lookups per receiver regardless of receiver count.
const (
	autoIndexMinWork = 1 << 10
	autoIndexMinTxs  = 8
)

// Config parameterizes a Medium.
type Config struct {
	Radii    geo.Radii
	Detector cd.Detector
	// Adversary may be nil for a well-behaved channel. The deliverable
	// slice handed to Filter is medium-owned scratch: implementations must
	// not retain it past the call.
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
	// Mode selects the delivery implementation; see DeliveryMode.
	Mode DeliveryMode
}

// Medium implements sim.Medium with quasi-unit-disk propagation and
// collision-detector synthesis.
//
// A Medium carries reusable per-round delivery state, so a single Medium
// must not have Deliver invoked concurrently (one engine, or one region
// shard, calling it once per round — the sim.Medium contract — is the
// intended use). The returned reception slice is valid until the next
// Deliver call.
type Medium struct {
	cfg Config

	// Per-round reusable state: the reception slice handed back to the
	// engine, the transmission-origin points and their cell index, and the
	// sender -> transmission identity map. Rebuilt (in place) every round,
	// so the steady-state round loop allocates almost nothing.
	out   []sim.Reception
	pts   []geo.Point
	ix    *geo.CellIndex
	ownTx map[sim.NodeID]int32

	scratch deliverScratch
}

// deliverScratch is the medium's reusable per-receiver delivery state: the
// grid candidate buffer, the per-receiver transmission partitions, and the
// receiver RNG.
type deliverScratch struct {
	buf         []int32
	inR1        []sim.Transmission
	gray        []sim.Transmission
	deliverable []sim.Transmission

	// The receiver randomness (gray-zone delivery and detector noise) is a
	// det.Stream re-keyed to (seed, round, receiver) per receiver — one
	// word of state, so reseeding is a HashKeys call and an assignment.
	// One pre-bound closure per medium (bound by NewMedium) — handing a
	// fresh closure to Detector.Report for every receiver is what used to
	// make delivery allocate twice per receiver per round.
	rng det.Stream
	rnd func() float64
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
	if cfg.Mode < ModeAuto || cfg.Mode > ModeGrid {
		return nil, fmt.Errorf("radio: unknown delivery mode %d", cfg.Mode)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	m := &Medium{cfg: cfg}
	m.scratch.rnd = m.scratch.rng.Float64
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

// Deliver implements sim.Medium. For each alive receiver it computes the
// physically deliverable set, applies the adversary, and synthesizes the
// collision-detector indication from the ground-truth losses. The returned
// slice is medium-owned and reused on the next call.
func (m *Medium) Deliver(r sim.Round, txs []sim.Transmission, rxs []sim.NodeInfo) []sim.Reception {
	if cap(m.out) < len(rxs) {
		m.out = make([]sim.Reception, len(rxs))
	}
	out := m.out[:len(rxs)]

	useIdx := false
	switch m.cfg.Mode {
	case ModeGrid:
		useIdx = true
	case ModeAuto:
		useIdx = len(txs) >= autoIndexMinTxs && len(txs)*len(rxs) >= autoIndexMinWork
	}
	var ix *geo.CellIndex
	if useIdx {
		// Rebuild the R2-cell transmission index in place: a receiver's
		// 3x3 cell block then covers every transmission within its
		// interference radius.
		m.pts = m.pts[:0]
		for i := range txs {
			m.pts = append(m.pts, txs[i].From)
		}
		if m.ix == nil {
			m.ix = geo.BuildCellIndex(m.pts, m.cfg.Radii.R2)
		} else {
			m.ix.Rebuild(m.pts)
		}
		ix = m.ix
		// The grid only surfaces transmissions whose origin lies near the
		// receiver, so a sender's own transmission is looked up by
		// identity instead — the half-duplex rule must hold whatever
		// position the transmission claims to originate from, keeping the
		// grid path reception-identical to the scan even for out-of-sync
		// From points.
		if m.ownTx == nil {
			m.ownTx = make(map[sim.NodeID]int32, len(txs))
		} else {
			clear(m.ownTx)
		}
		for i := range txs {
			m.ownTx[txs[i].Sender] = int32(i)
		}
	}

	for i, rx := range rxs {
		if !rx.Alive {
			out[i] = sim.Reception{Round: r}
			continue
		}
		if ix != nil {
			m.scratch.buf = ix.Near(m.scratch.buf[:0], rx.At, 1)
		}
		out[i] = m.receive(r, txs, ix != nil, rx)
	}
	return out
}

// receive computes one receiver's reception. When useIdx is set, the scratch buf
// holds the indices (into txs) of the grid-selected candidates, a superset
// of every transmission within R2 of the receiver, and m.ownTx maps each
// sender to its transmission (identity can't be answered by a positional
// query); otherwise the full transmission slice is scanned. Both paths
// classify candidates by exact distance, so they produce identical
// receptions. The partitions live in the medium's scratch, reused across
// receivers and rounds.
func (m *Medium) receive(r sim.Round, txs []sim.Transmission, useIdx bool, rx sim.NodeInfo) sim.Reception {
	radii := m.cfg.Radii
	s := &m.scratch

	// Partition the round's transmissions as seen from this receiver.
	var own *sim.Transmission
	inR1, gray := s.inR1[:0], s.gray[:0] // from other nodes
	consider := func(i int) {
		tx := txs[i]
		if tx.Sender == rx.ID {
			own = &txs[i]
			return
		}
		d2 := tx.From.Dist2(rx.At)
		switch {
		case d2 <= radii.R1*radii.R1:
			inR1 = append(inR1, tx)
		case d2 <= radii.R2*radii.R2:
			gray = append(gray, tx)
		}
	}
	if useIdx {
		if i, ok := m.ownTx[rx.ID]; ok {
			own = &txs[i]
		}
		for _, i := range s.buf {
			if txs[i].Sender != rx.ID {
				consider(int(i))
			}
		}
	} else {
		for i := range txs {
			consider(i)
		}
	}
	s.inR1, s.gray = inR1, gray // keep grown capacity for the next receiver
	othersInR2 := len(inR1) + len(gray)

	// Randomness for this receiver (gray-zone delivery and detector
	// noise) is keyed by (seed, round, receiver), so it is independent of
	// the order receivers are processed in.
	s.rng.Reseed(m.cfg.Seed, int64(r), int64(rx.ID))
	rnd := s.rnd

	// Physical delivery: a node always hears its own broadcast. A message
	// from another node gets through only when it is the sole transmission
	// within R2 of the receiver AND the receiver itself is not
	// transmitting — the delivery guarantee of Section 2 requires that "no
	// node within distance R2 of pj broadcasts", and pj is within R2 of
	// itself (half-duplex). Gray-zone delivery is probabilistic
	// (default: never).
	deliverable := s.deliverable[:0]
	if othersInR2 == 1 && own == nil {
		deliverable = append(deliverable, inR1...)
		for _, tx := range gray {
			if m.cfg.GrayZoneDeliveryProb > 0 && rnd() < m.cfg.GrayZoneDeliveryProb {
				deliverable = append(deliverable, tx)
			}
		}
	}
	s.deliverable = deliverable

	// Adversarial loss (only effective before the adversary's horizon).
	delivered := deliverable
	spurious := false
	if adv := m.cfg.Adversary; adv != nil {
		delivered = adv.Filter(r, rx.ID, rx.At, deliverable)
		spurious = adv.ForceCollision(r, rx.ID, rx.At)
	}

	// Ground truth for the collision detector: a loss is any transmission
	// from another node within the relevant radius that was not delivered,
	// whatever the cause (contention, gray zone, or adversary).
	lostR1, lostR2 := false, false
	for _, tx := range inR1 {
		if !containsTx(delivered, tx.Sender) {
			lostR1 = true
			lostR2 = true
			break
		}
	}
	if !lostR2 {
		for _, tx := range gray {
			if !containsTx(delivered, tx.Sender) {
				lostR2 = true
				break
			}
		}
	}

	collision := m.cfg.Detector.Report(r, lostR1, lostR2, spurious, rnd)

	// An empty reception carries nil Msgs — the common case at scale
	// (collisions silence most receivers), and the reason the steady-state
	// delivery loop stays nearly allocation-free. Non-empty message slices
	// are freshly allocated because receivers are allowed to retain them.
	if own == nil && len(delivered) == 0 {
		return sim.Reception{Round: r, Collision: collision}
	}
	msgs := make([]sim.Message, 0, len(delivered)+1)
	if own != nil {
		msgs = append(msgs, own.Msg)
	}
	for _, tx := range delivered {
		msgs = append(msgs, tx.Msg)
	}
	return sim.Reception{Round: r, Msgs: msgs, Collision: collision}
}

func containsTx(txs []sim.Transmission, sender sim.NodeID) bool {
	for _, tx := range txs {
		if tx.Sender == sender {
			return true
		}
	}
	return false
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
