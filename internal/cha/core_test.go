package cha

import (
	"fmt"
	"testing"
)

// runInstance drives one full instance through core with the given channel
// observations and returns the output.
type instanceScript struct {
	proposal     Value
	ballots      []Ballot // ballots received (nil+collision=false => red)
	ballotColl   bool
	veto1, coll1 bool
	veto2, coll2 bool
}

func drive(c *Core, k Instance, s instanceScript) Output {
	own := c.Begin(k, s.proposal)
	ballots := s.ballots
	if ballots == nil && !s.ballotColl {
		// Default: this node is the leader and hears its own ballot.
		ballots = []Ballot{own}
	}
	c.ObserveBallots(ballots, s.ballotColl)
	c.ObserveVeto1(s.veto1, s.coll1)
	return c.ObserveVeto2(s.veto2, s.coll2)
}

func TestCleanInstanceIsGreen(t *testing.T) {
	c := NewCore()
	out := drive(c, 1, instanceScript{proposal: V("v1")})
	if out.Color != Green {
		t.Fatalf("color = %v, want green", out.Color)
	}
	if !out.Decided() {
		t.Fatal("clean instance must decide")
	}
	if v, ok := out.History.At(1); !ok || v.String() != "v1" {
		t.Errorf("history(1) = %q, %v", v, ok)
	}
	if c.prev != 1 {
		t.Errorf("prev = %d, want 1", c.prev)
	}
}

func TestFigure2ColorTable(t *testing.T) {
	// The four rows of Figure 2: which phase fails -> final color ->
	// whether a history is output.
	tests := []struct {
		name   string
		script instanceScript
		color  Color
		decide bool
	}{
		{"ballot ok, veto1 ok, veto2 ok -> green, history",
			instanceScript{proposal: V("v")}, Green, true},
		{"ballot ok, veto1 ok, veto2 X -> yellow, bottom",
			instanceScript{proposal: V("v"), coll2: true}, Yellow, false},
		{"ballot ok, veto1 X -> orange, bottom",
			instanceScript{proposal: V("v"), coll1: true, veto2: true}, Orange, false},
		{"ballot X -> red, bottom",
			instanceScript{proposal: V("v"), ballotColl: true, veto1: true, veto2: true}, Red, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := NewCore()
			out := drive(c, 1, tt.script)
			if out.Color != tt.color {
				t.Errorf("color = %v, want %v", out.Color, tt.color)
			}
			if out.Decided() != tt.decide {
				t.Errorf("decided = %v, want %v", out.Decided(), tt.decide)
			}
		})
	}
}

func TestEmptyBallotPhaseIsRed(t *testing.T) {
	c := NewCore()
	c.Begin(1, V("v"))
	c.ObserveBallots(nil, false) // M = ∅, no collision: still red (line 30)
	if !c.NeedVeto1() {
		t.Error("empty ballot set must designate red")
	}
}

func TestVetoObligations(t *testing.T) {
	c := NewCore()
	c.Begin(1, V("v"))
	c.ObserveBallots(nil, true) // red
	if !c.NeedVeto1() {
		t.Error("red node must veto in veto-1")
	}
	c.ObserveVeto1(true, false) // hears own veto; stays red
	if c.Status(1) != Red {
		t.Errorf("status = %v, want red (min(orange, red) = red)", c.Status(1))
	}
	if !c.NeedVeto2() {
		t.Error("red node must veto in veto-2")
	}

	c2 := NewCore()
	c2.Begin(1, V("v"))
	c2.ObserveBallots([]Ballot{{V: V("v")}}, false)
	if c2.NeedVeto1() {
		t.Error("non-red node must not veto in veto-1")
	}
	c2.ObserveVeto1(true, false) // someone else vetoed
	if c2.Status(1) != Orange {
		t.Errorf("status = %v, want orange", c2.Status(1))
	}
	if !c2.NeedVeto2() {
		t.Error("orange node must veto in veto-2")
	}
}

func TestYellowIsGoodButUndecided(t *testing.T) {
	c := NewCore()
	out := drive(c, 1, instanceScript{proposal: V("v"), veto2: true})
	if out.Color != Yellow {
		t.Fatalf("color = %v", out.Color)
	}
	if out.Decided() {
		t.Error("yellow must output ⊥")
	}
	// But prev advances: yellow is good.
	if c.prev != 1 {
		t.Errorf("prev = %d, want 1 (yellow is good)", c.prev)
	}
}

func TestOrangeAndRedDoNotAdvancePrev(t *testing.T) {
	for _, tt := range []struct {
		name   string
		script instanceScript
	}{
		{"orange", instanceScript{proposal: V("v"), coll1: true, veto2: true}},
		{"red", instanceScript{proposal: V("v"), ballotColl: true, veto1: true, veto2: true}},
	} {
		t.Run(tt.name, func(t *testing.T) {
			c := NewCore()
			drive(c, 1, tt.script)
			if c.prev != 0 {
				t.Errorf("prev = %d, want 0", c.prev)
			}
		})
	}
}

func TestHistoryChainSkipsBadInstances(t *testing.T) {
	c := NewCore()
	// Instance 1 green, instance 2 red, instance 3 green.
	drive(c, 1, instanceScript{proposal: V("a")})
	drive(c, 2, instanceScript{proposal: V("b"), ballotColl: true, veto1: true, veto2: true})
	// At instance 3 the leader (this node) broadcasts prev=1.
	out := drive(c, 3, instanceScript{proposal: V("c")})
	if !out.Decided() {
		t.Fatal("instance 3 should decide")
	}
	h := out.History
	if v, ok := h.At(1); !ok || v.String() != "a" {
		t.Errorf("h(1) = %q,%v want a", v, ok)
	}
	if includes(h, 2) {
		t.Error("red instance 2 must be ⊥ in the history")
	}
	if v, ok := h.At(3); !ok || v.String() != "c" {
		t.Errorf("h(3) = %q,%v want c", v, ok)
	}
}

func TestAdoptedBallotPointerOverridesLocalChain(t *testing.T) {
	// A node that was orange at instance 2 adopts a leader ballot at 3
	// whose prev pointer includes 2 — the chain must follow the ballot's
	// pointer, not the node's own prev history.
	c := NewCore()
	drive(c, 1, instanceScript{proposal: V("a")}) // green, prev=1
	// Instance 2: ballot received but then vetoed into orange.
	c.Begin(2, V("b"))
	c.ObserveBallots([]Ballot{{V: V("b"), Prev: 1}}, false)
	c.ObserveVeto1(true, false) // orange
	out := c.ObserveVeto2(true, false)
	if out.Color != Orange || c.prev != 1 {
		t.Fatalf("setup: color=%v prev=%d", out.Color, c.prev)
	}
	// Instance 3: leader was yellow at 2, so its ballot carries prev=2.
	c.Begin(3, V("c"))
	c.ObserveBallots([]Ballot{{V: V("c"), Prev: 2}}, false)
	c.ObserveVeto1(false, false)
	out = c.ObserveVeto2(false, false)
	if !out.Decided() {
		t.Fatal("instance 3 should decide")
	}
	h := out.History
	if v, ok := h.At(2); !ok || v.String() != "b" {
		t.Errorf("h(2) = %q,%v; the adopted chain must include instance 2", v, ok)
	}
	if v, ok := h.At(1); !ok || v.String() != "a" {
		t.Errorf("h(1) = %q,%v", v, ok)
	}
}

func TestMinBallotAdoption(t *testing.T) {
	c := NewCore()
	c.Begin(1, V("z"))
	c.ObserveBallots([]Ballot{{V: V("m"), Prev: 0}, {V: V("a"), Prev: 0}}, false)
	c.ObserveVeto1(false, false)
	out := c.ObserveVeto2(false, false)
	if v, _ := out.History.At(1); v.String() != "a" {
		t.Errorf("adopted %q, want minimum ballot a", v)
	}
}

func TestBeginPanicsOnNonIncreasingInstance(t *testing.T) {
	c := NewCore()
	c.Begin(1, V("a"))
	defer func() {
		if recover() == nil {
			t.Error("Begin(1) twice should panic")
		}
	}()
	c.Begin(1, V("b"))
}

func TestBrokenChainCounter(t *testing.T) {
	c := NewCore()
	// Simulate the impossible-under-completeness situation: adopt a ballot
	// whose prev pointer names an instance we never stored (we were red
	// there and — with a broken detector — the leader never learned).
	c.Begin(1, V("a"))
	c.ObserveBallots(nil, true)  // red at 1: no ballot stored
	c.ObserveVeto1(false, false) // vetoes lost, nothing detected (broken CD)
	c.ObserveVeto2(false, false)
	c.Begin(2, V("b"))
	c.ObserveBallots([]Ballot{{V: V("b"), Prev: 1}}, false)
	c.ObserveVeto1(false, false)
	out := c.ObserveVeto2(false, false)
	if c.BrokenChains == 0 {
		t.Error("dereferencing a missing ballot must increment BrokenChains")
	}
	if includes(out.History, 1) {
		t.Error("broken chain should not fabricate a value for instance 1")
	}
}

func TestGCBoundsRetainedState(t *testing.T) {
	c := NewCore()
	for k := Instance(1); k <= 100; k++ {
		out := drive(c, k, instanceScript{proposal: V(fmt.Sprintf("v%d", k))})
		if out.Color != Green {
			t.Fatalf("instance %d not green", k)
		}
		c.GC(out.Instance)
		if got := c.Retained(); got > 2 {
			t.Fatalf("instance %d: retained %d entries, want <= 2", k, got)
		}
	}
	if c.floor != 99 {
		t.Errorf("floor = %d, want 99", c.floor)
	}
}

func TestGCHistoriesStartAboveFloor(t *testing.T) {
	c := NewCore()
	drive(c, 1, instanceScript{proposal: V("a")})
	drive(c, 2, instanceScript{proposal: V("b")})
	c.GC(2)
	out := drive(c, 3, instanceScript{proposal: V("c")})
	if !out.Decided() {
		t.Fatal("instance 3 should decide")
	}
	if includes(out.History, 1) {
		t.Error("GC'd instance 1 must not appear in new histories")
	}
	if !includes(out.History, 2) || !includes(out.History, 3) {
		t.Error("instances at/above the GC point must appear")
	}
	if c.BrokenChains != 0 {
		t.Errorf("GC must not be reported as a broken chain: %d", c.BrokenChains)
	}
}

func TestNoGCKeepsEverything(t *testing.T) {
	c := NewCore()
	for k := Instance(1); k <= 50; k++ {
		drive(c, k, instanceScript{proposal: V("v")})
	}
	if got := c.Retained(); got < 50 {
		t.Errorf("without GC, retained = %d, want >= 50", got)
	}
}

func TestStatusDefaultsGreen(t *testing.T) {
	c := NewCore()
	if c.Status(42) != Green {
		t.Error("untouched instances must default to green (Figure 1 line 7)")
	}
}
