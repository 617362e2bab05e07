package cha

import (
	"fmt"
	"sync/atomic"

	"vinfra/internal/wire"
)

// Core is the round-agnostic CHAP state machine of Figure 1. It holds the
// per-instance status (color) and ballot arrays, the prev-instance pointer,
// and the calculate-history function; callers drive it through the three
// phases of each instance (Begin/ObserveBallots, NeedVeto1/ObserveVeto1,
// NeedVeto2/ObserveVeto2) and schedule the phases onto actual communication
// rounds themselves.
//
// Two schedulers exist in this repository: Replica (this package) runs one
// phase per radio round — the plain CHA setting of Section 3 — and the
// virtual infrastructure emulator (internal/vi) embeds the phases into its
// eleven-phase virtual round, stretching the ballot phase of unscheduled
// instances over s+2 slots (Section 4.3).
//
// The per-instance state is a window, not a log. Section 3.5's floor bounds
// what a node must keep — nothing at or below it is ever dereferenced
// again — so the state of instance k lives at index k − floor − 1 of one
// slice, and the invariant is that every entry is above floor: a write at
// or below it is dropped, a read there is green and ballotless. GC, which
// raises the floor, is a count over the entries that fall below it, a copy
// down and a reslice; the window holds no slot before its first entry. A
// steady core collects below the instance it just closed, so GC copies one
// slot down and the next instance reuses the array's second: O(dropped),
// and no allocation.
type Core struct {
	k    Instance // current instance (Figure 1 line 6: k)
	prev Instance // most recent good instance (prev-instance)

	floor Instance // garbage-collection floor (Section 3.5); 0 = keep all
	win   []slot   // win[i] is instance floor+1+i

	// BrokenChains counts calculate-history walks that dereferenced a
	// missing ballot. With complete collision detectors this must remain
	// zero (Lemma 6); the Null-detector ablation drives it positive.
	BrokenChains int

	// view is HistoryView's storage, reused from call to call, and what a
	// green Output's History builds at the output's instance; its top is
	// unbuilt from a close until an output asks.
	view History
}

// slot is one instance's state in the window; the zero slot is an instance
// nothing is known of — green, no ballot adopted.
type slot struct {
	ballot Ballot
	has    bool  // ballot was adopted (Figure 1 line 32)
	color  Color // 0 = green (Figure 1 line 7), else the downgraded color
}

// NewCore returns a fresh CHAP state machine with no completed instances.
// A zero Core is the same machine, so a caller that lays cores out in
// storage of its own (vi.Deployment carves a bootstrapped replica's from one
// array) takes a zero entry instead.
func NewCore() *Core { return &Core{} }

// Status returns the color this node assigned to instance k (green if the
// instance was never downgraded).
func (c *Core) Status(k Instance) Color {
	if i := k - c.floor - 1; i >= 0 && int(i) < len(c.win) && c.win[i].color != 0 {
		return c.win[i].color
	}
	return Green
}

// Adopted returns the ballot value this node adopted for instance k (Figure 1
// line 32), and whether it adopted one; at or below the floor it has none.
// For the instance a green Output closes it is that output's history at k.
func (c *Core) Adopted(k Instance) (Value, bool) {
	if i := k - c.floor - 1; i >= 0 && int(i) < len(c.win) && c.win[i].has {
		return c.win[i].ballot.V, true
	}
	return Value{}, false
}

// slotOf returns instance k's slot, extending the window up to it, or nil
// when k is at or below the floor.
func (c *Core) slotOf(k Instance) *slot {
	i := int(k - c.floor - 1)
	if i < 0 {
		return nil
	}
	for len(c.win) <= i {
		c.win = append(c.win, slot{})
	}
	return &c.win[i]
}

// downgrade darkens instance k to at most to, one of red, orange or yellow
// (so the stored color is never an explicit green).
func (c *Core) downgrade(k Instance, to Color) {
	if s := c.slotOf(k); s != nil {
		s.color = minColor(to, c.Status(k))
	}
}

// Begin starts instance k with proposal v and returns the ballot this node
// would broadcast if advised active (Figure 1 lines 13–19). Instances must
// be begun in increasing order.
func (c *Core) Begin(k Instance, v Value) Ballot {
	if k <= c.k {
		panic("cha: Begin called with non-increasing instance")
	}
	c.k = k
	return Ballot{V: v, Prev: c.prev}
}

// ObserveBallots closes the ballot phase of the current instance with the
// set of ballots received and the collision indication (Figure 1
// lines 29–32): no ballot or a collision designates the instance red;
// otherwise the minimum ballot is adopted.
func (c *Core) ObserveBallots(received []Ballot, collision bool) {
	if len(received) == 0 {
		c.ObserveMinBallot(Ballot{}, false, collision)
		return
	}
	c.ObserveMinBallot(MinBallot(received), true, collision)
}

// ObserveMinBallot is ObserveBallots for a caller that folded the received
// set to its minimum b as it read the reception (MinBallotOf); heard reports
// whether any ballot was received at all.
func (c *Core) ObserveMinBallot(b Ballot, heard, collision bool) {
	if !heard || collision {
		c.downgrade(c.k, Red)
		return
	}
	if s := c.slotOf(c.k); s != nil {
		s.ballot, s.has = b, true
	}
}

// NeedVeto reports whether this node must broadcast a veto in veto phase
// p: status red in the first (Figure 1 line 21), red or orange in the
// second (line 25). It reads the status once, so a Seat's Veto inlines.
func (c *Core) NeedVeto(p Phase) bool {
	st := c.Status(c.k)
	return st == Red || st == Orange && p == PhaseVeto2
}

// NeedVeto1 is NeedVeto(PhaseVeto1).
func (c *Core) NeedVeto1() bool { return c.NeedVeto(PhaseVeto1) }

// ObserveVeto1 closes the first veto phase: a received veto or a collision
// downgrades the instance to (at most) orange (Figure 1 lines 33–35).
func (c *Core) ObserveVeto1(sawVeto, collision bool) {
	if sawVeto || collision {
		c.downgrade(c.k, Orange)
	}
}

// NeedVeto2 is NeedVeto(PhaseVeto2).
func (c *Core) NeedVeto2() bool { return c.NeedVeto(PhaseVeto2) }

// Output is the result of one completed instance at one node.
type Output struct {
	Instance Instance
	// Color is the final color this node assigned to the instance.
	Color Color
	// Floor is the garbage-collection floor at output time: positions at
	// or below it have been folded into a checkpoint and are absent from
	// History (always 0 without checkpointing).
	Floor Instance

	// history is the output history, nil for ⊥; core, set on a green
	// output of a Core, is the core that builds it on demand.
	history *History
	core    *Core
}

// NewOutput returns the output of instance k colored c at floor with
// history h, nil for ⊥: an output of an agreement other than Core's (the
// baselines', a staged experiment's), whose history is built already.
func NewOutput(k Instance, c Color, floor Instance, h *History) Output {
	return Output{Instance: k, Color: c, Floor: floor, history: h}
}

// Decided reports whether the instance produced a history (≠ ⊥).
func (o Output) Decided() bool { return o.history != nil }

// History returns the output history, or nil for ⊥ (non-green instances).
// A Core's output is its core's view, built at the output's own instance
// when the view does not hold it — on the first call after the close, so a
// consumer that never asks costs nothing. What it returns is valid until
// the core's view is rebuilt, by HistoryView or another output's History;
// a call gives the output's history until the core's GC, ResetAt or
// Restore drops what it is built from. So a consumer reads it inside the
// hook it is handed to, a scheduler that collects asks before it does, and
// code that keeps a history keeps CalculateHistory's copy, not it.
func (o Output) History() *History {
	if c := o.core; c != nil && c.view.top != o.Instance {
		// A green close set prev to its own instance.
		c.walk(&c.view, o.Instance, o.Instance, false)
	}
	return o.history
}

// unbuilt is the view's top from a close until an output's history is
// asked for: no instance, so the view holds none.
const unbuilt Instance = -1

// ObserveVeto2 closes the second veto phase and the instance (Figure 1
// lines 36–45): a veto or collision downgrades to (at most) yellow; good
// instances advance the prev-instance pointer; and the output is the
// history if the instance stayed green, ⊥ otherwise. The close walks the
// history chain whatever the color, so that a broken chain counts here,
// once, as it is found; what the walk passes is written out only when the
// output's History is asked for, into the core's view.
func (c *Core) ObserveVeto2(sawVeto, collision bool) Output {
	if sawVeto || collision {
		c.downgrade(c.k, Yellow)
	}
	st := c.Status(c.k)
	if st.Good() {
		c.prev = c.k
	}
	c.walk(nil, c.k, c.prev, true)
	c.view.top = unbuilt
	out := Output{Instance: c.k, Color: st, Floor: c.floor}
	if st == Green {
		out.history, out.core = &c.view, c
	}
	return out
}

// CalculateHistory computes this node's current best history estimate:
// the chain of prev-instance pointers starting from its own prev pointer,
// evaluated at the current instance. The virtual-node emulation uses it to
// materialize the virtual node's state between outputs (Section 3.3). The
// result is freshly allocated and the caller's to keep: it is the call for
// code that holds a history past the round it was output in.
func (c *Core) CalculateHistory() *History {
	h := new(History)
	c.walk(h, c.k, c.prev, true)
	return h
}

// HistoryView is CalculateHistory into storage the core owns and reuses:
// the result is valid until the next HistoryView or ObserveVeto2 on this
// core, and must not be retained past it — the retain rule of
// sim.Reception.Msgs. It is for the caller that reads the estimate and
// drops it, every round, and it is what a green Output.History is.
func (c *Core) HistoryView() *History {
	c.walk(&c.view, c.k, c.prev, true)
	return &c.view
}

// walk is the calculate-history function of Figure 1 lines 46–54, evaluated
// at instance top whose prev-instance was prev (the current instance and
// pointer, or a closed instance's own): follow the chain of prev pointers
// from prev down to the GC floor, adopting the ballot value wherever it
// passes — into h, ⊥ elsewhere, when h is not nil. A pointer that does not
// point strictly down ends the chain, as does the floor. A missing ballot
// ends it too, and counts in BrokenChains when count is set: a history
// built for an output its close has walked already does not count again.
func (c *Core) walk(h *History, top, prev Instance, count bool) {
	if h != nil {
		h.top, h.floor = top, c.floor
		clear(h.ents)
		h.ents = h.ents[:0]
		if countBuilt {
			built.Add(1)
		}
	}
	for at, p := top+1, prev; p > c.floor && p < at; {
		i := int(p - c.floor - 1)
		if i >= len(c.win) || !c.win[i].has {
			// With complete collision detectors this cannot happen
			// (Lemma 6: an instance on the chain is designated good by
			// some node, hence not red by any, hence every node adopted
			// its ballot). Count it and stop the walk.
			if count {
				c.BrokenChains++
			}
			break
		}
		b := &c.win[i].ballot
		if h != nil {
			if len(h.ents) == 0 {
				// The first link is the highest position the history includes.
				switch {
				case cap(h.ents) > i:
					h.ents = h.ents[:i+1]
				case i < len(h.short):
					h.ents = h.short[:i+1]
				default:
					h.ents = make([]position, i+1)
				}
			}
			h.ents[i] = position{v: b.V, ok: true}
		}
		at, p = p, b.Prev
	}
}

// countBuilt makes walk count in built the histories it writes out. Only
// tests set it (export_test.go): a measurement, never state, like a
// medium's work counts.
var (
	countBuilt bool
	built      atomic.Int64
)

// Retained returns the number of per-instance entries currently held — the
// local space usage that Section 3.5's checkpointing bounds.
func (c *Core) Retained() int { return countEntries(c.win) }

// countEntries counts the colors and ballots a run of slots holds.
func countEntries(win []slot) int {
	n := 0
	for i := range win {
		if win[i].has {
			n++
		}
		if win[i].color != 0 {
			n++
		}
	}
	return n
}

// GC garbage-collects all per-instance state below instance upTo
// (Section 3.5) and returns the number of entries freed. It is only safe to
// call when this node designated upTo green: a green instance is on every
// future history chain (Lemma 9), so earlier ballots can never be
// dereferenced again. Histories calculated after GC contain only instances
// above the floor; callers carry the folded prefix as a checkpoint digest.
func (c *Core) GC(upTo Instance) int {
	if upTo-1 <= c.floor {
		return 0
	}
	drop := min(int(upTo-1-c.floor), len(c.win))
	c.floor = upTo - 1
	removed := countEntries(c.win[:drop])
	kept := copy(c.win, c.win[drop:])
	clear(c.win[kept:])
	c.win = c.win[:kept]
	return removed
}

// ResetAt reinitializes the state machine as of instance k: all prior
// instances are treated as folded away (floor = k) and the next instance
// begun must be k+1. It is the agreement-layer half of the virtual node
// reset protocol (Section 4.3).
func (c *Core) ResetAt(k Instance) {
	c.k = k
	c.prev = 0
	c.floor = k
	clear(c.win)
	c.win = c.win[:0]
}

// CoreSnapshot is a serializable copy of a Core's per-instance state above
// its floor, used for join state transfer (Section 4.3). Entries are sorted
// by instance so snapshots of equal cores are deeply equal.
type CoreSnapshot struct {
	Floor, K, Prev Instance
	BallotKeys     []Instance
	Ballots        []Ballot
	StatusKeys     []Instance
	Statuses       []Color
}

// WireSize returns the exact size of the snapshot's wire encoding
// (AppendTo appends exactly this many bytes).
func (s CoreSnapshot) WireSize() int {
	size := wire.UvarintSize(uint64(s.Floor)) +
		wire.UvarintSize(uint64(s.K)) +
		wire.UvarintSize(uint64(s.Prev)) +
		wire.UvarintSize(uint64(len(s.BallotKeys))) +
		wire.UvarintSize(uint64(len(s.StatusKeys)))
	for i, k := range s.BallotKeys {
		b := s.Ballots[i]
		size += wire.UvarintSize(uint64(k)) +
			wire.BytesSize(b.V.Len()) +
			wire.UvarintSize(uint64(b.Prev))
	}
	for i, k := range s.StatusKeys {
		size += wire.UvarintSize(uint64(k)) + wire.UvarintSize(uint64(s.Statuses[i]))
	}
	return size
}

// AppendTo appends the snapshot's canonical wire encoding: the three
// pointers, then the ballot entries (instance, value, prev) in instance
// order, then the status entries (instance, color) in instance order.
// Snapshot always emits sorted keys, so equal cores encode identically.
func (s CoreSnapshot) AppendTo(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(s.Floor))
	dst = wire.AppendUvarint(dst, uint64(s.K))
	dst = wire.AppendUvarint(dst, uint64(s.Prev))
	dst = wire.AppendUvarint(dst, uint64(len(s.BallotKeys)))
	for i, k := range s.BallotKeys {
		b := s.Ballots[i]
		dst = wire.AppendUvarint(dst, uint64(k))
		dst = wire.AppendBytes(dst, b.V.Bytes())
		dst = wire.AppendUvarint(dst, uint64(b.Prev))
	}
	dst = wire.AppendUvarint(dst, uint64(len(s.StatusKeys)))
	for i, k := range s.StatusKeys {
		dst = wire.AppendUvarint(dst, uint64(k))
		dst = wire.AppendUvarint(dst, uint64(s.Statuses[i]))
	}
	return dst
}

// DecodeCoreSnapshot parses one snapshot from d (the inverse of AppendTo).
// It validates counts against the remaining input and the color range, so
// adversarial bytes yield an error, never a panic or an outsized
// allocation.
func DecodeCoreSnapshot(d *wire.Decoder) (CoreSnapshot, error) {
	var s CoreSnapshot
	s.Floor = Instance(d.Uvarint())
	s.K = Instance(d.Uvarint())
	s.Prev = Instance(d.Uvarint())
	nb := d.Count()
	for i := 0; i < nb; i++ {
		k := Instance(d.Uvarint())
		v := d.Bytes()
		prev := Instance(d.Uvarint())
		if d.Err() != nil {
			return CoreSnapshot{}, d.Err()
		}
		s.BallotKeys = append(s.BallotKeys, k)
		s.Ballots = append(s.Ballots, Ballot{V: ValueOf(append([]byte(nil), v...)), Prev: prev})
	}
	ns := d.Count()
	for i := 0; i < ns; i++ {
		k := Instance(d.Uvarint())
		c := Color(d.Uvarint())
		if d.Err() != nil {
			return CoreSnapshot{}, d.Err()
		}
		if c < Red || c > Green {
			return CoreSnapshot{}, wire.ErrMalformed
		}
		s.StatusKeys = append(s.StatusKeys, k)
		s.Statuses = append(s.Statuses, c)
	}
	if err := d.Err(); err != nil {
		return CoreSnapshot{}, err
	}
	return s, nil
}

// Snapshot captures the core's current state. The window is walked in
// instance order, so the keys come out sorted.
func (c *Core) Snapshot() CoreSnapshot {
	s := CoreSnapshot{
		Floor: c.floor, K: c.k, Prev: c.prev,
		BallotKeys: make([]Instance, 0, len(c.win)),
		Ballots:    make([]Ballot, 0, len(c.win)),
		StatusKeys: []Instance{},
		Statuses:   []Color{},
	}
	for i := range c.win {
		k := c.floor + 1 + Instance(i)
		if c.win[i].has {
			s.BallotKeys = append(s.BallotKeys, k)
			s.Ballots = append(s.Ballots, c.win[i].ballot)
		}
		if c.win[i].color != 0 {
			s.StatusKeys = append(s.StatusKeys, k)
			s.Statuses = append(s.Statuses, c.win[i].color)
		}
	}
	return s
}

// maxWindowSparsity bounds the window a snapshot may ask RestoreCore for:
// at most this many instances per entry it carries.
const maxWindowSparsity = 16

// RestoreCore builds a Core from a snapshot (the joiner's side of state
// transfer, and a checkpointed replica's way back). A snapshot is input:
// its keys become indexes, so anything Snapshot could not have produced is
// an error — a negative pointer, ballot or status keys that are not
// strictly increasing, a key at or below Floor or above K, Prev above K, a
// ballot whose Prev is not below its own key, an explicit green status
// (green is the absence of one).
//
// The one rule about size: K − Floor may be at most maxWindowSparsity
// × (entries + 1), entries being the ballots plus the statuses. A begun
// instance leaves an entry behind — its ballot, or red — so a live core's
// span is about its entry count; an instance that was skipped has none, and
// the factor is the room for those. Every key lies between Floor and K, so
// the window RestoreCore allocates is a constant multiple of the snapshot's
// encoded length, whatever the numbers in it say.
func RestoreCore(s CoreSnapshot) (*Core, error) {
	c := new(Core)
	if err := c.Restore(s); err != nil {
		return nil, err
	}
	return c, nil
}

// Check reports whether RestoreCore takes snapshot s: nil, or the error it
// refuses s with. It changes nothing, so a caller that must refuse a
// checkpoint blob as a whole checks the core before anything else of it
// lands.
func (s CoreSnapshot) Check() error {
	if len(s.BallotKeys) != len(s.Ballots) || len(s.StatusKeys) != len(s.Statuses) {
		return fmt.Errorf("cha: restore: %d ballot keys for %d ballots, %d status keys for %d statuses",
			len(s.BallotKeys), len(s.Ballots), len(s.StatusKeys), len(s.Statuses))
	}
	if s.Floor < 0 || s.K < 0 || s.Prev < 0 {
		return fmt.Errorf("cha: restore: negative pointer (floor %d, k %d, prev %d)", s.Floor, s.K, s.Prev)
	}
	if s.Prev > s.K {
		return fmt.Errorf("cha: restore: prev %d above current instance %d", s.Prev, s.K)
	}
	entries := len(s.BallotKeys) + len(s.StatusKeys)
	if s.K-s.Floor > Instance(maxWindowSparsity*(entries+1)) {
		return fmt.Errorf("cha: restore: instances %d..%d are too wide a window for %d entries", s.Floor+1, s.K, entries)
	}
	for _, keys := range [][]Instance{s.BallotKeys, s.StatusKeys} {
		last := s.Floor
		for _, k := range keys {
			if k <= last || k > s.K {
				return fmt.Errorf("cha: restore: key %d out of order or outside %d..%d", k, s.Floor+1, s.K)
			}
			last = k
		}
	}
	for i, k := range s.BallotKeys {
		if s.Ballots[i].Prev >= k {
			return fmt.Errorf("cha: restore: ballot %d points at %d, not below itself", k, s.Ballots[i].Prev)
		}
	}
	for i, k := range s.StatusKeys {
		if st := s.Statuses[i]; st < Red || st >= Green {
			return fmt.Errorf("cha: restore: instance %d carries status %v", k, st)
		}
	}
	return nil
}

// Restore lays snapshot s over c in place: afterwards c is the core
// RestoreCore(s) returns, kept in c's own storage (a replica carved from a
// deployment's array keeps using its entry). It refuses what Check
// refuses, before it writes, so a refused snapshot leaves c as it was.
func (c *Core) Restore(s CoreSnapshot) error {
	if err := s.Check(); err != nil {
		return err
	}
	top := s.Floor
	if n := len(s.BallotKeys); n > 0 {
		top = s.BallotKeys[n-1]
	}
	if n := len(s.StatusKeys); n > 0 {
		top = max(top, s.StatusKeys[n-1])
	}
	c.floor, c.k, c.prev = s.Floor, s.K, s.Prev
	c.BrokenChains = 0
	n := int(top - s.Floor)
	if cap(c.win) < n {
		c.win = make([]slot, n)
	} else {
		clear(c.win[:cap(c.win)])
		c.win = c.win[:n]
	}
	for i, k := range s.BallotKeys {
		c.win[k-s.Floor-1] = slot{ballot: s.Ballots[i], has: true}
	}
	for i, k := range s.StatusKeys {
		c.win[k-s.Floor-1].color = s.Statuses[i]
	}
	return nil
}
