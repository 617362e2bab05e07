package cha

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vinfra/internal/wire"
)

// corePair drives the window Core and the map oracle through the same calls
// and compares everything either exposes.
type corePair struct {
	t     *testing.T
	w     *Core
	o     *mapCore
	step  int
	check int // full-history digests are taken every check steps
}

func (p *corePair) fatalf(format string, args ...any) {
	p.t.Helper()
	p.t.Fatalf("step %d (k=%d floor=%d): %s", p.step, p.o.k, p.o.floor, fmt.Sprintf(format, args...))
}

// sameHistory holds h to the oracle's m over the window and a margin either
// side, position by position and by the digest of that range; full says to
// fold both from instance 1 as well.
func (p *corePair) sameHistory(what string, h *History, m *mapHistory, full bool) {
	p.t.Helper()
	if h.Top() != m.Top() {
		p.fatalf("%s: top %d, oracle %d", what, h.Top(), m.Top())
	}
	lo, hi := max(p.o.floor-2, 1), m.Top()+2
	for k := lo; k <= hi; k++ {
		v, ok := h.At(k)
		mv, mok := m.At(k)
		if ok != mok || !v.Equal(mv) || includes(h, k) != mok {
			p.fatalf("%s: position %d = %q,%v, oracle %q,%v", what, k, v, ok, mv, mok)
		}
	}
	if h.Len() != m.Len() || fmt.Sprint(h.Included()) != fmt.Sprint(m.Included()) {
		p.fatalf("%s: includes %v, oracle %v", what, h.Included(), m.Included())
	}
	if a, b := h.DigestRange(lo, hi, 7), m.DigestRange(lo, hi, 7); a != b {
		p.fatalf("%s: window digest %x, oracle %x", what, a, b)
	}
	if full && digest(h) != m.Digest() {
		p.fatalf("%s: digest %x, oracle %x", what, digest(h), m.Digest())
	}
}

// same compares the two cores' whole observable state.
func (p *corePair) same() {
	p.t.Helper()
	w, o := p.w, p.o
	if w.k != o.Instance() || w.prev != o.Prev() || w.floor != o.Floor() {
		p.fatalf("pointers k=%d prev=%d floor=%d, oracle k=%d prev=%d floor=%d",
			w.k, w.prev, w.floor, o.Instance(), o.Prev(), o.Floor())
	}
	for k := o.floor - 2; k <= o.k+2; k++ {
		if w.Status(k) != o.Status(k) {
			p.fatalf("status(%d) = %v, oracle %v", k, w.Status(k), o.Status(k))
		}
	}
	if w.NeedVeto1() != o.NeedVeto1() || w.NeedVeto2() != o.NeedVeto2() {
		p.fatalf("veto duty differs")
	}
	if w.Retained() != o.Retained() {
		p.fatalf("retained %d, oracle %d", w.Retained(), o.Retained())
	}
	ws, os := w.Snapshot(), o.Snapshot()
	if wb, ob := ws.AppendTo(nil), os.AppendTo(nil); !bytes.Equal(wb, ob) || ws.WireSize() != len(wb) {
		p.fatalf("snapshot % x (WireSize %d), oracle % x", wb, ws.WireSize(), ob)
	}
	full := p.step%p.check == 0
	m := o.CalculateHistory()
	p.sameHistory("CalculateHistory", w.CalculateHistory(), m, full)
	p.sameHistory("HistoryView", w.HistoryView(), o.CalculateHistory(), false)
	// Two walks each, so a broken chain has counted alike.
	if w.BrokenChains != o.BrokenChains {
		p.fatalf("broken chains %d, oracle %d", w.BrokenChains, o.BrokenChains)
	}
}

// instance runs one agreement instance on both cores: k is begun with a
// random proposal, the ballot phase hears 0–3 ballots whose prev pointers
// are any earlier instance (present, collected or never adopted — broken
// chains included), and bad forces a veto or a collision somewhere.
func (p *corePair) instance(rng *rand.Rand, k Instance, bad bool) (green bool) {
	p.t.Helper()
	v := V(fmt.Sprintf("v%d-%d", k, rng.Intn(4)))
	wb, ob := p.w.Begin(k, v), p.o.Begin(k, v)
	if !wb.Equal(ob) {
		p.fatalf("Begin(%d) = %+v, oracle %+v", k, wb, ob)
	}
	var ballots []Ballot
	if rng.Intn(8) != 0 { // not lost
		ballots = append(ballots, wb)
		for n := rng.Intn(3); n > 0; n-- {
			ballots = append(ballots, Ballot{
				V:    V(fmt.Sprintf("v%d-%d", k, rng.Intn(4))),
				Prev: Instance(rng.Intn(int(k))),
			})
		}
	}
	fail := 0
	if bad {
		fail = 1 + rng.Intn(3)
	}
	coll := fail == 1 && rng.Intn(2) == 0
	if fail == 1 && !coll {
		ballots = nil
	}
	p.w.ObserveBallots(ballots, coll)
	p.o.ObserveBallots(ballots, coll)
	p.same()
	veto1 := p.o.NeedVeto1() || fail == 2
	p.w.ObserveVeto1(veto1, false)
	p.o.ObserveVeto1(veto1, false)
	p.same()
	veto2, coll2 := p.o.NeedVeto2(), fail == 3
	wo, oo := p.w.ObserveVeto2(veto2, coll2), p.o.ObserveVeto2(veto2, coll2)
	if wo.Instance != oo.Instance || wo.Color != oo.Color || wo.Floor != oo.Floor || wo.Decided() != (oo.History != nil) {
		p.fatalf("output %+v, oracle %+v", wo, oo)
	}
	if wo.Decided() {
		p.sameHistory("Output.History", wo.History, oo.History, p.step%p.check == 0)
		if wo.History == &p.w.view {
			p.fatalf("a published history is the core's scratch view")
		}
	}
	p.same()
	return oo.Color == Green
}

// TestWindowCoreMatchesMapCore is the acceptance of "byte-identical": a
// seeded random driver applies one sequence of calls — instances under loss
// and collisions, non-green stretches of random length, skipped instances,
// GC at random green points, resets, snapshot-and-restore — to the window
// Core and to the map Core it replaced, and after every call requires equal
// pointers, statuses over the window, outputs, histories (position by
// position and by digest), BrokenChains, Retained, GC return values and
// snapshot bytes. The digest from instance 1 is folded every 64th step — it
// costs the whole execution length — and the window's own range every step.
func TestWindowCoreMatchesMapCore(t *testing.T) {
	steps := 10000
	if testing.Short() {
		steps = 2000
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := &corePair{t: t, w: NewCore(), o: newMapCore(), check: 64}
		var greens []Instance // instances this node designated green, above the floor
		bad := 0              // instances left in the current non-green stretch
		for p.step = 1; p.step <= steps; p.step++ {
			switch op := rng.Intn(100); {
			case op < 80:
				k := p.o.k + 1
				if rng.Intn(25) == 0 {
					k += Instance(1 + rng.Intn(3)) // never begun: neither entry
				}
				if bad == 0 && rng.Intn(12) == 0 {
					bad = 1 + rng.Intn(40)
				}
				green := p.instance(rng, k, bad > 0)
				if bad > 0 {
					bad--
				}
				if green {
					greens = append(greens, k)
					if rng.Intn(10) < 7 { // what a checkpointing replica does
						if a, b := p.w.GC(k), p.o.GC(k); a != b {
							p.fatalf("GC(%d) removed %d, oracle %d", k, a, b)
						}
						greens = greens[:0]
					}
				}
			case op < 90:
				if len(greens) == 0 {
					continue
				}
				i := rng.Intn(len(greens))
				upTo := greens[i]
				if rng.Intn(4) == 0 {
					upTo = p.o.floor // at or below the floor: nothing to do
				}
				if a, b := p.w.GC(upTo), p.o.GC(upTo); a != b {
					p.fatalf("GC(%d) removed %d, oracle %d", upTo, a, b)
				}
				if upTo == greens[i] {
					greens = greens[i+1:]
				}
			case op < 93:
				k := p.o.k + Instance(rng.Intn(3))
				p.w.ResetAt(k)
				p.o.ResetAt(k)
				greens, bad = greens[:0], 0
			default:
				snap := p.w.Snapshot()
				d := wire.Dec(snap.AppendTo(nil))
				dec, err := DecodeCoreSnapshot(&d)
				if err != nil || d.Finish() != nil {
					p.fatalf("snapshot does not decode: %v", err)
				}
				w, err := RestoreCore(dec)
				if err != nil {
					p.fatalf("snapshot does not restore: %v", err)
				}
				w.BrokenChains = p.w.BrokenChains
				o := restoreMapCore(p.o.Snapshot())
				o.BrokenChains = p.o.BrokenChains
				p.w, p.o = w, o
			}
			p.same()
		}
		if p.o.BrokenChains == 0 || p.o.floor < Instance(steps/2) {
			t.Errorf("seed %d: the driver broke %d chains and raised the floor to %d; it should do both", seed, p.o.BrokenChains, p.o.floor)
		}
		if len(p.w.win) > 64 || cap(p.w.win) > 256 {
			t.Errorf("seed %d: window len %d cap %d after %d steps", seed, len(p.w.win), cap(p.w.win), steps)
		}
	}
}

// TestChainWalkIgnoresUpwardPointers pins the one place the window walk is
// not the map walk line for line: it jumps along prev pointers where the
// map version counted down, so a pointer that does not point strictly down —
// which no correct node sends and RestoreCore refuses — must end the chain
// there too, not loop.
func TestChainWalkIgnoresUpwardPointers(t *testing.T) {
	for _, prev := range []Instance{2, 3, 7} {
		p := &corePair{t: t, w: NewCore(), o: newMapCore(), check: 1}
		for k := Instance(1); k <= 3; k++ {
			b := Ballot{V: V("x"), Prev: k - 1}
			if k == 2 {
				b.Prev = prev // at itself, above itself, above everything
			}
			p.w.Begin(k, b.V)
			p.o.Begin(k, b.V)
			p.w.ObserveBallots([]Ballot{b}, false)
			p.o.ObserveBallots([]Ballot{b}, false)
			p.w.ObserveVeto1(false, false)
			p.o.ObserveVeto1(false, false)
			p.w.ObserveVeto2(false, false)
			p.o.ObserveVeto2(false, false)
			p.same()
		}
	}
}

// TestCoreWindowStaysShort is "a window, not a log" at the core: 5 000
// green instances, each collected as a checkpointing replica collects it,
// and the window is the two slots an instance in progress needs — the last
// green one and the current — in storage that did not creep.
func TestCoreWindowStaysShort(t *testing.T) {
	c := NewCore()
	for k := Instance(1); k <= 5000; k++ {
		if out := drive(c, k, instanceScript{proposal: V("v")}); out.Color != Green {
			t.Fatalf("instance %d: %v", k, out.Color)
		}
		if len(c.win) > 2 {
			t.Fatalf("instance %d: window len %d before GC", k, len(c.win))
		}
		c.GC(k)
	}
	if c.floor != 4999 || len(c.win) != 1 || cap(c.win) > 8 {
		t.Errorf("floor %d, window len %d cap %d after 5000 instances", c.floor, len(c.win), cap(c.win))
	}
}

// TestRestoreCoreRejects: a snapshot's keys become indexes, so RestoreCore
// refuses whatever Snapshot could not have produced, and allocates nothing
// the encoded length does not pay for.
func TestRestoreCoreRejects(t *testing.T) {
	good := func() CoreSnapshot {
		return CoreSnapshot{
			Floor: 9, K: 12, Prev: 11,
			BallotKeys: []Instance{10, 11},
			Ballots:    []Ballot{{V: V("a"), Prev: 9}, {V: V("b"), Prev: 10}},
			StatusKeys: []Instance{11, 12},
			Statuses:   []Color{Yellow, Red},
		}
	}
	if _, err := RestoreCore(good()); err != nil {
		t.Fatalf("the base snapshot must restore: %v", err)
	}
	// A skipped instance has neither entry: gaps are legitimate.
	gap := good()
	gap.K, gap.BallotKeys[1], gap.StatusKeys = 40, 30, []Instance{31, 40}
	gap.Ballots[1].Prev = 10
	if c, err := RestoreCore(gap); err != nil {
		t.Errorf("a snapshot with gaps must restore: %v", err)
	} else if len(c.win) != 31 {
		t.Errorf("window spans %d instances, want 31 (floor 9, top key 40)", len(c.win))
	}
	tests := []struct {
		name   string
		break_ func(s *CoreSnapshot)
		want   string
	}{
		{"huge K", func(s *CoreSnapshot) { s.K = 1 << 40 }, "too wide"},
		{"huge ballot key", func(s *CoreSnapshot) { s.K, s.BallotKeys[1] = 1<<40, 1<<40 }, "too wide"},
		{"huge status key", func(s *CoreSnapshot) { s.StatusKeys[1] = 1 << 40 }, "outside"},
		{"unsorted ballot keys", func(s *CoreSnapshot) { s.BallotKeys[0], s.BallotKeys[1] = 11, 10 }, "out of order"},
		{"duplicate ballot key", func(s *CoreSnapshot) { s.BallotKeys[1] = 10 }, "out of order"},
		{"duplicate status key", func(s *CoreSnapshot) { s.StatusKeys[0] = 12 }, "out of order"},
		{"ballot key at the floor", func(s *CoreSnapshot) { s.BallotKeys[0] = 9 }, "outside"},
		{"status key below the floor", func(s *CoreSnapshot) { s.StatusKeys[0] = 3 }, "outside"},
		{"key above K", func(s *CoreSnapshot) { s.StatusKeys[1] = 13 }, "outside"},
		{"prev above K", func(s *CoreSnapshot) { s.Prev = 13 }, "prev 13 above"},
		{"ballot pointing at itself", func(s *CoreSnapshot) { s.Ballots[1].Prev = 11 }, "not below itself"},
		{"ballot pointing up", func(s *CoreSnapshot) { s.Ballots[0].Prev = 12 }, "not below itself"},
		{"explicit green", func(s *CoreSnapshot) { s.Statuses[0] = Green }, "status green"},
		{"status out of range", func(s *CoreSnapshot) { s.Statuses[0] = 0 }, "status"},
		{"negative floor", func(s *CoreSnapshot) { s.Floor = -1 }, "negative"},
		{"negative K", func(s *CoreSnapshot) { s.K = Instance(-1 << 62) }, "negative"},
		{"K far from the floor, no entries", func(s *CoreSnapshot) { *s = CoreSnapshot{Floor: 5, K: 5 + maxWindowSparsity + 1} }, "too wide"},
		{"ragged ballots", func(s *CoreSnapshot) { s.Ballots = s.Ballots[:1] }, "ballot keys"},
	}
	for _, tt := range tests {
		s := good()
		tt.break_(&s)
		c, err := RestoreCore(s)
		if err == nil || c != nil {
			t.Errorf("%s: restored (err %v)", tt.name, err)
		} else if !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: error %q, want it to mention %q", tt.name, err, tt.want)
		}
	}
	// The widest window the rule admits is still a small multiple of the
	// snapshot's encoding.
	wide := CoreSnapshot{K: 2 * maxWindowSparsity, Prev: 0, StatusKeys: []Instance{2 * maxWindowSparsity}, Statuses: []Color{Red}}
	c, err := RestoreCore(wide)
	if err != nil {
		t.Fatalf("a snapshot at the sparsity bound must restore: %v", err)
	}
	if len(c.win) != 2*maxWindowSparsity || !bytes.Equal(c.Snapshot().AppendTo(nil), wide.AppendTo(nil)) {
		t.Errorf("window %d slots, snapshot % x; want %d slots and the input's bytes", len(c.win), c.Snapshot().AppendTo(nil), 2*maxWindowSparsity)
	}
}

// TestWritesBelowTheFloorAreDropped: a restored snapshot may claim an
// instance in progress at its floor (Began, K = Floor); observing into it
// must neither index out of the window nor leave an entry behind.
func TestWritesBelowTheFloorAreDropped(t *testing.T) {
	c := NewCore()
	c.ResetAt(7)
	c.ObserveBallots(nil, false)
	c.ObserveBallots([]Ballot{{V: V("x")}}, false)
	c.ObserveVeto1(true, false)
	out := c.ObserveVeto2(true, true)
	if c.Retained() != 0 || len(c.win) != 0 || c.Status(7) != Green || out.Color != Green {
		t.Errorf("retained %d, window %d, status %v after writes at the floor", c.Retained(), len(c.win), c.Status(7))
	}
}
