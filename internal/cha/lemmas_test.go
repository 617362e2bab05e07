package cha_test

// Scenario tests for the proof obligations of Section 3.6, staged over the
// real radio with scripted adversaries. Each test names the lemma it
// exercises.

import (
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/cha"
	"vinfra/internal/cm"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
)

// stagedCluster builds a 3-node cluster (leader 0, observers 1 and 2) with
// the given script and eventually-accurate detection.
func stagedCluster(t *testing.T, script *radio.Script, racc sim.Round) *cluster {
	t.Helper()
	factory, _ := cm.NewFixed(0)
	return newCluster(t, clusterOpts{
		n:         3,
		cmFactory: factory,
		detector:  cd.EventuallyAC{Racc: racc},
		adversary: script,
	})
}

// Lemma 5, first clause: if some node designates k green, every node
// designates it green or yellow.
func TestLemma5GreenImpliesOthersAtLeastYellow(t *testing.T) {
	script := &radio.Script{}
	script.Collide(2, 2) // spurious ± at node 2 in veto-2 of instance 1
	c := stagedCluster(t, script, 100)
	c.runInstances(1)

	colors := []cha.Color{
		c.replicas[0].Core().Status(1),
		c.replicas[1].Core().Status(1),
		c.replicas[2].Core().Status(1),
	}
	hasGreen := false
	for _, col := range colors {
		if col == cha.Green {
			hasGreen = true
		}
	}
	if !hasGreen {
		t.Fatalf("setup failed: no green node (%v)", colors)
	}
	for i, col := range colors {
		if col != cha.Green && col != cha.Yellow {
			t.Errorf("node %d: color %v alongside a green node (Lemma 5)", i, col)
		}
	}
}

// Lemma 5, second clause: if some node designates k red, every node
// designates it red or orange.
func TestLemma5RedImpliesOthersAtMostOrange(t *testing.T) {
	script := &radio.Script{}
	script.DropAll(0, 2) // node 2 misses the ballot of instance 1
	c := stagedCluster(t, script, 100)
	c.runInstances(1)

	colors := []cha.Color{
		c.replicas[0].Core().Status(1),
		c.replicas[1].Core().Status(1),
		c.replicas[2].Core().Status(1),
	}
	if colors[2] != cha.Red {
		t.Fatalf("setup failed: dropped node is %v, want red", colors[2])
	}
	for i, col := range colors {
		if col != cha.Red && col != cha.Orange {
			t.Errorf("node %d: color %v alongside a red node (Lemma 5)", i, col)
		}
	}
}

// Lemma 6: an instance included in an output history is not designated red
// by any node — even the node that lost the ballot reconstructs the value
// later via the adopted ballot chain.
func TestLemma6IncludedInstanceNeverRed(t *testing.T) {
	script := &radio.Script{}
	script.Collide(2, 1) // node 1 yellow at instance 1 (1 stays non-red)
	c := stagedCluster(t, script, 100)
	c.runInstances(5)

	// All nodes eventually output histories including instance 1.
	for i, rep := range c.replicas {
		h := rep.Core().CalculateHistory()
		if _, ok := h.At(1); !ok {
			t.Errorf("node %d: history excludes instance 1", i)
		}
		if rep.Core().Status(1) == cha.Red {
			t.Errorf("node %d designates an included instance red (Lemma 6)", i)
		}
	}
}

// Lemma 7/8: two histories that both include an instance agree on it and
// on every earlier instance.
func TestLemma8CommonPrefixAgreement(t *testing.T) {
	script := &radio.Script{}
	script.DropAll(3, 1) // node 1 red at instance 2 (rounds 3-5)
	script.Collide(8, 2) // node 2 yellow at instance 3 (rounds 6-8)
	c := stagedCluster(t, script, 100)
	c.runInstances(6)

	h0 := c.replicas[0].Core().CalculateHistory()
	h1 := c.replicas[1].Core().CalculateHistory()
	h2 := c.replicas[2].Core().CalculateHistory()
	top := cha.Instance(6)
	if !h0.PrefixEqual(h1, top) || !h0.PrefixEqual(h2, top) {
		t.Errorf("histories diverge:\n h0=%v\n h1=%v\n h2=%v", h0, h1, h2)
	}
}

// Lemma 9: once an instance is green at some node, every later history
// includes it.
func TestLemma9GreenInstancesPersist(t *testing.T) {
	script := &radio.Script{}
	// Disturb several later instances; instance 1 is clean (green at all).
	script.DropAll(3, 1)
	script.Collide(5, 2)
	script.Collide(7, 0)
	c := stagedCluster(t, script, 100)
	c.runInstances(8)

	for i, rep := range c.replicas {
		if rep.Core().Status(1) != cha.Green {
			t.Fatalf("setup failed: node %d instance 1 is %v", i, rep.Core().Status(1))
		}
		h := rep.Core().CalculateHistory()
		if _, ok := h.At(1); !ok {
			t.Errorf("node %d: green instance 1 missing from a later history (Lemma 9)", i)
		}
	}
}

// Theorem 12 scenario: instability window, then stability — every node
// decides every instance after k_st and all earlier gaps resolve to the
// same assignment.
func TestTheorem12StabilizationScenario(t *testing.T) {
	script := &radio.Script{}
	// Instance 1 disturbed at everyone (forced ±), instances 2+ clean.
	script.Collide(2, 0)
	script.Collide(2, 1)
	script.Collide(2, 2)
	c := stagedCluster(t, script, 3)
	c.runInstances(10)

	rep := c.rec.Report()
	requireClean(t, rep)
	if !rep.LivenessOK {
		t.Fatal("no stabilization")
	}
	if rep.Stabilization > 2 {
		t.Errorf("k_st = %d, want <= 2 (only instance 1 was disturbed)", rep.Stabilization)
	}
	// Instance 1 was yellow everywhere (good): it is included in later
	// histories with an agreed value, despite nobody deciding it at the
	// time.
	h := c.replicas[0].Core().CalculateHistory()
	if _, ok := h.At(1); !ok {
		t.Error("yellow instance 1 should be resolved by later chains")
	}
}

// The orange/red boundary: a node that misses only the veto-1 phase
// (orange) must still veto in veto-2, dragging everyone to yellow — so no
// node outputs while any node is in the dark about the ballot.
func TestOrangeNodeVetoesInVeto2(t *testing.T) {
	script := &radio.Script{}
	script.Collide(1, 1) // node 1 sees ± in veto-1 of instance 1
	c := stagedCluster(t, script, 100)
	c.runInstances(1)

	if got := c.replicas[1].Core().Status(1); got != cha.Orange {
		t.Fatalf("node 1 = %v, want orange", got)
	}
	// Its veto-2 broadcast downgrades the leader and node 2 to yellow.
	for _, i := range []int{0, 2} {
		if got := c.replicas[i].Core().Status(1); got != cha.Yellow {
			t.Errorf("node %d = %v, want yellow (must hear the orange node's veto)", i, got)
		}
	}
	rep := c.rec.Report()
	if rep.DecidedRate != 0 {
		t.Errorf("nobody may decide instance 1; decided rate = %v", rep.DecidedRate)
	}
}

// Crash in the middle of the veto sequence: a red node that crashes after
// veto-1 has already poisoned the instance; outputs stay consistent.
func TestRedNodeCrashMidInstance(t *testing.T) {
	script := &radio.Script{}
	script.DropAll(0, 2) // node 2 red at instance 1
	c := stagedCluster(t, script, 100)
	// Run the ballot and veto-1 rounds, then crash node 2 before veto-2.
	c.eng.Run(2)
	c.eng.Crash(c.ids[2])
	c.rec.MarkCrashed(c.ids[2])
	c.eng.Run(1)
	c.runInstances(5)

	rep := c.rec.Report()
	requireClean(t, rep)
	// Instance 1 was poisoned by the veto-1 veto: survivors are orange
	// (they heard the veto and then vetoed in veto-2 themselves).
	for _, i := range []int{0, 1} {
		if got := c.replicas[i].Core().Status(1); got.Good() {
			t.Errorf("node %d designates poisoned instance 1 %v", i, got)
		}
	}
	if !rep.LivenessOK {
		t.Error("survivors should stabilize after the crash")
	}
}
