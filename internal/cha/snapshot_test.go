package cha

import (
	"reflect"
	"testing"
)

func buildCoreWithHistory(t *testing.T) *Core {
	t.Helper()
	c := NewCore()
	// Instance 1 green, 2 yellow, 3 green.
	drive(c, 1, instanceScript{proposal: V("a")})
	drive(c, 2, instanceScript{proposal: V("b"), veto2: true})
	drive(c, 3, instanceScript{proposal: V("c")})
	return c
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	c := buildCoreWithHistory(t)
	snap := c.Snapshot()

	if snap.K != 3 || snap.Prev != 3 || snap.Floor != 0 {
		t.Errorf("snapshot header = %+v", snap)
	}
	restored, err := RestoreCore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Prev() != c.Prev() || restored.Instance() != c.Instance() || restored.Floor() != c.Floor() {
		t.Error("restored core header differs")
	}
	h1 := c.CalculateHistory()
	h2 := restored.CalculateHistory()
	if h1.Digest() != h2.Digest() {
		t.Errorf("restored history differs: %v vs %v", h1, h2)
	}
	// Statuses carried over.
	if restored.Status(2) != Yellow {
		t.Errorf("restored status(2) = %v, want yellow", restored.Status(2))
	}
	// The restored core continues correctly.
	out := drive(restored, 4, instanceScript{proposal: V("d")})
	if !out.Decided() || !out.History.Includes(1) || !out.History.Includes(4) {
		t.Errorf("restored core's next instance broken: %v", out.History)
	}
}

func TestSnapshotDeterministicOrdering(t *testing.T) {
	c1 := buildCoreWithHistory(t)
	c2 := buildCoreWithHistory(t)
	s1, s2 := c1.Snapshot(), c2.Snapshot()
	if !reflect.DeepEqual(s1, s2) {
		t.Errorf("snapshots of identical cores differ:\n%+v\n%+v", s1, s2)
	}
	if !sortedInstances(s1.BallotKeys) || !sortedInstances(s1.StatusKeys) {
		t.Error("snapshot keys must be sorted")
	}
}

func sortedInstances(ks []Instance) bool {
	for i := 1; i < len(ks); i++ {
		if ks[i] < ks[i-1] {
			return false
		}
	}
	return true
}

func TestSnapshotWireSize(t *testing.T) {
	empty := CoreSnapshot{}
	if got := empty.WireSize(); got != len(empty.AppendTo(nil)) {
		t.Errorf("empty snapshot WireSize = %d, encoded %d bytes", got, len(empty.AppendTo(nil)))
	}
	c := buildCoreWithHistory(t)
	snap := c.Snapshot()
	if snap.WireSize() != len(snap.AppendTo(nil)) {
		t.Errorf("WireSize = %d, encoded %d bytes", snap.WireSize(), len(snap.AppendTo(nil)))
	}
	if snap.WireSize() <= empty.WireSize() {
		t.Error("populated snapshot should be larger than the header")
	}
	// GC shrinks the snapshot.
	c.GC(3)
	small := c.Snapshot()
	if small.WireSize() >= snap.WireSize() {
		t.Errorf("GC did not shrink the snapshot: %d vs %d", small.WireSize(), snap.WireSize())
	}
}

func TestResetAt(t *testing.T) {
	c := buildCoreWithHistory(t)
	c.ResetAt(10)
	if c.Instance() != 10 || c.Prev() != 0 || c.Floor() != 10 {
		t.Errorf("after ResetAt(10): k=%d prev=%d floor=%d", c.Instance(), c.Prev(), c.Floor())
	}
	if c.Retained() != 0 {
		t.Errorf("ResetAt must clear per-instance state, retained %d", c.Retained())
	}
	// Next instance is 11 and works from a clean slate.
	out := drive(c, 11, instanceScript{proposal: V("x")})
	if !out.Decided() {
		t.Fatal("instance after reset must decide")
	}
	if out.History.Includes(3) {
		t.Error("pre-reset instances must not appear in post-reset histories")
	}
	if v, ok := out.History.At(11); !ok || v.String() != "x" {
		t.Errorf("h(11) = %q,%v", v, ok)
	}
}

func TestGCIdempotentAndMonotone(t *testing.T) {
	c := buildCoreWithHistory(t)
	c.GC(3)
	floor := c.Floor()
	// GC with a smaller bound must not lower the floor.
	c.GC(1)
	if c.Floor() != floor {
		t.Errorf("GC(1) lowered the floor: %d -> %d", floor, c.Floor())
	}
	if removed := c.GC(3); removed != 0 {
		t.Errorf("repeated GC removed %d entries", removed)
	}
}

func TestCheckerValidityViolationDetected(t *testing.T) {
	rec := NewRecorder()
	// Propose only "legit" for instance 1.
	propose := rec.WrapPropose(func(Instance) Value { return V("legit") })
	propose(1)
	// An output claiming a value nobody proposed.
	rec.Record(0, Output{
		Instance: 1,
		Color:    Green,
		History:  NewHistory(1, map[Instance]Value{1: V("forged")}),
	})
	rep := rec.Report()
	if rep.ValidityViolations != 1 {
		t.Errorf("validity violations = %d, want 1", rep.ValidityViolations)
	}
	if rep.FirstValidity == "" {
		t.Error("missing violation description")
	}
	if rep.Violations() == "" {
		t.Error("Violations() should summarize the failure")
	}
}

func TestCheckerAgreementViolationDetected(t *testing.T) {
	rec := NewRecorder()
	propose := rec.WrapPropose(func(Instance) Value { return V("v") })
	propose(1)
	rec.Record(0, Output{Instance: 1, Color: Green, History: NewHistory(1, map[Instance]Value{1: V("v")})})
	rec.Record(1, Output{Instance: 1, Color: Green, History: NewHistory(1, nil)}) // ⊥ at 1
	rep := rec.Report()
	if rep.AgreementViolations != 1 {
		t.Errorf("agreement violations = %d, want 1", rep.AgreementViolations)
	}
	if rep.Violations() == "" {
		t.Error("Violations() should summarize the failure")
	}
}

func TestCheckerLivenessFailureReported(t *testing.T) {
	rec := NewRecorder()
	rec.Record(0, Output{Instance: 1, Color: Yellow}) // ⊥ forever
	rep := rec.Report()
	if rep.LivenessOK {
		t.Error("a run ending in ⊥ has no stabilization instance")
	}
	if rep.Violations() == "" {
		t.Error("Violations() should mention liveness")
	}
}

func TestCheckerEmptyRun(t *testing.T) {
	rec := NewRecorder()
	rep := rec.Report()
	if rep.LivenessOK || rep.Instances != 0 || rep.DecidedRate != 0 {
		t.Errorf("empty run report = %+v", rep)
	}
}
