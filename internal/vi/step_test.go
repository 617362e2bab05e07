package vi

import (
	"testing"

	"vinfra/internal/cha"
	"vinfra/internal/sim"
)

// TestStepMatchesByContent pins what a published step is shared for: the
// same position, the same start state — the same slice or equal bytes — and
// the same agreed value there, ⊥ included. Anything else is stepped afresh
// and replaces the published step.
func TestStepMatchesByContent(t *testing.T) {
	r := newTestReplica()
	// at returns a history of a core whose floor is k-1 and that adopted
	// value v for instance k, or heard nothing there when v is nil.
	at := func(k cha.Instance, v *cha.Value) *cha.History {
		r.core = cha.NewCore()
		r.core.ResetAt(k - 1)
		if v == nil {
			r.lose(k)
		} else {
			r.adopt(k, *v, 0)
		}
		return r.core.CalculateHistory()
	}
	a, b := input("a"), input("b")
	steps := []struct {
		name  string
		k     cha.Instance
		from  string
		v     *cha.Value
		want  string
		calls int64 // OnRound calls after the step
	}{
		{"first step", 5, "s", &a, "s|5:[a]", 1},
		{"the same position, state bytes and value", 5, "s", &a, "s|5:[a]", 1},
		{"another value", 5, "s", &b, "s|5:[b]", 2},
		{"the value before it again", 5, "s", &a, "s|5:[a]", 3},
		{"another start state", 5, "t", &a, "t|5:[a]", 4},
		{"⊥", 5, "t", nil, "t|5:±", 5},
		{"⊥ again", 5, "t", nil, "t|5:±", 5},
		{"another position", 4, "t", nil, "t|4:±", 6},
		{"another position, the same value", 6, "t", &a, "t|6:[a]", 7},
		{"that position again", 6, "t", &a, "t|6:[a]", 7},
	}
	for i, s := range steps {
		val, ok := at(s.k, s.v).At(s.k)
		if got := string(r.d.step(0, &r.sc, []byte(s.from), val, ok, s.k, sim.Round(i), true)); got != s.want {
			t.Fatalf("%s: stepped to %q, want %q", s.name, got, s.want)
		}
		if n := r.calls.Load(); n != s.calls {
			t.Fatalf("%s: %d OnRound calls, want %d", s.name, n, s.calls)
		}
	}
}

// TestMemoOneWriterARound pins the memo's claim: of two publishes in one
// radio round the first stands, and a record is rewritten only by the
// second publish after it, so the record a reader loaded in one round is
// intact through the next.
func TestMemoOneWriterARound(t *testing.T) {
	var m memo[int]
	if got := *m.load(); got != 0 {
		t.Fatalf("before any publish the memo holds %d, want the zero record", got)
	}
	m.publish(3, 1)
	m.publish(3, 2)
	held := m.load()
	if *held != 1 {
		t.Fatalf("after two publishes in round 3 the memo holds %d, want the first, 1", *held)
	}
	m.publish(4, 3)
	if got := *m.load(); got != 3 || *held != 1 {
		t.Fatalf("after round 4 the memo holds %d and round 3's record %d, want 3 and 1", got, *held)
	}
	m.publish(5, 4)
	if got := m.load(); got != held || *got != 4 {
		t.Fatalf("round 5 wrote %d into another record than round 3's, want 4 into it", *got)
	}
}
