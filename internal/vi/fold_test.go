package vi

import (
	"sync/atomic"
	"testing"

	"vinfra/internal/cha"
)

// TestFoldNextMatchesByContent pins what a published fold is shared for: the
// same floor, the same floor state — the same slice or equal bytes — and
// the same agreed value at the next position, ⊥ included. Anything else is
// folded afresh and replaces the published fold.
func TestFoldNextMatchesByContent(t *testing.T) {
	var calls atomic.Int64
	d := &Deployment{
		programs: []Program{countingProgram{Program: appendProgram{}, n: &calls}},
		folds:    make([]atomic.Pointer[sharedFold], 1),
	}
	at := func(floor cha.Instance, state string) *stateCache {
		sc := new(stateCache)
		sc.resetAt(floor, []byte(state))
		return sc
	}
	a := historyOf(5, map[cha.Instance]cha.Value{5: input("a")})
	b := historyOf(5, map[cha.Instance]cha.Value{5: input("b")})
	bottom := historyOf(5, nil)
	steps := []struct {
		name  string
		sc    *stateCache
		h     *cha.History
		want  string
		calls int64 // OnRound calls after the step
	}{
		{"first fold", at(4, "s"), a, "s|5:[a]", 1},
		{"the same floor, state bytes and value", at(4, "s"), a, "s|5:[a]", 1},
		{"another value", at(4, "s"), b, "s|5:[b]", 2},
		{"the value before it again", at(4, "s"), a, "s|5:[a]", 3},
		{"another floor state", at(4, "t"), a, "t|5:[a]", 4},
		{"⊥", at(4, "t"), bottom, "t|5:±", 5},
		{"⊥ again", at(4, "t"), bottom, "t|5:±", 5},
		{"another floor", at(3, "t"), historyOf(4, map[cha.Instance]cha.Value{4: input("a")}), "t|4:[a]", 6},
	}
	for _, s := range steps {
		k := s.sc.floor + 1
		if got := string(d.foldNext(0, s.sc, s.h, k)); got != s.want {
			t.Fatalf("%s: folded %q, want %q", s.name, got, s.want)
		}
		if n := calls.Load(); n != s.calls {
			t.Fatalf("%s: %d OnRound calls, want %d", s.name, n, s.calls)
		}
	}
}
