package cha

import (
	"testing"
	"testing/quick"
)

func TestColorOrderAndString(t *testing.T) {
	if !(Red < Orange && Orange < Yellow && Yellow < Green) {
		t.Fatal("color lattice order broken")
	}
	tests := []struct {
		c    Color
		s    string
		good bool
	}{
		{Red, "red", false},
		{Orange, "orange", false},
		{Yellow, "yellow", true},
		{Green, "green", true},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.s {
			t.Errorf("String(%d) = %q, want %q", tt.c, got, tt.s)
		}
		if got := tt.c.Good(); got != tt.good {
			t.Errorf("%v.Good() = %v, want %v", tt.c, got, tt.good)
		}
	}
	if got := Color(9).String(); got != "color(9)" {
		t.Errorf("unknown color string = %q", got)
	}
}

func TestMinColor(t *testing.T) {
	if minColor(Green, Orange) != Orange {
		t.Error("minColor(Green, Orange) != Orange")
	}
	if minColor(Red, Yellow) != Red {
		t.Error("minColor(Red, Yellow) != Red")
	}
	if minColor(Yellow, Yellow) != Yellow {
		t.Error("minColor identity broken")
	}
}

func TestBallotOrdering(t *testing.T) {
	tests := []struct {
		name string
		a, b Ballot
		less bool
	}{
		{"by value", Ballot{V: V("a"), Prev: 9}, Ballot{V: V("b"), Prev: 1}, true},
		{"by value reversed", Ballot{V: V("b")}, Ballot{V: V("a")}, false},
		{"tie on value, by prev", Ballot{V: V("a"), Prev: 1}, Ballot{V: V("a"), Prev: 2}, true},
		{"equal", Ballot{V: V("a"), Prev: 1}, Ballot{V: V("a"), Prev: 1}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Less(tt.b); got != tt.less {
				t.Errorf("Less = %v, want %v", got, tt.less)
			}
		})
	}
}

func TestMinBallot(t *testing.T) {
	bs := []Ballot{{V: V("c"), Prev: 1}, {V: V("a"), Prev: 5}, {V: V("b"), Prev: 0}}
	if got := MinBallot(bs); !got.Equal(Ballot{V: V("a"), Prev: 5}) {
		t.Errorf("MinBallot = %+v", got)
	}
	single := []Ballot{{V: V("x"), Prev: 3}}
	if got := MinBallot(single); !got.Equal(single[0]) {
		t.Errorf("MinBallot of singleton = %+v", got)
	}
}

func TestMinBallotIsDeterministicUnderPermutation(t *testing.T) {
	f := func(vals []uint8) bool {
		if len(vals) == 0 {
			return true
		}
		bs := make([]Ballot, len(vals))
		for i, v := range vals {
			bs[i] = Ballot{V: V(string(rune('a' + v%26))), Prev: Instance(v % 7)}
		}
		want := MinBallot(bs)
		// Rotate and compare.
		rot := append(bs[1:], bs[0])
		return MinBallot(rot).Equal(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistoryBasics(t *testing.T) {
	h := NewHistory(5, map[Instance]Value{1: V("a"), 3: V("b"), 5: V("c")})
	if h.Top() != 5 {
		t.Errorf("Top = %d", h.Top())
	}
	if v, ok := h.At(3); !ok || v.String() != "b" {
		t.Errorf("At(3) = %q, %v", v, ok)
	}
	if _, ok := h.At(2); ok {
		t.Error("At(2) should be ⊥")
	}
	if includes(h, 2) || !includes(h, 5) {
		t.Error("Includes wrong")
	}
	if got := h.Included(); len(got) != 3 || got[0] != 1 || got[2] != 5 {
		t.Errorf("Included = %v", got)
	}
	if h.Len() != 3 {
		t.Errorf("Len = %d", h.Len())
	}
	if got := h.String(); got != "[1:a 2:⊥ 3:b 4:⊥ 5:c]" {
		t.Errorf("String = %q", got)
	}
}

func TestNewHistoryDropsOutOfRange(t *testing.T) {
	h := NewHistory(3, map[Instance]Value{0: V("x"), 2: V("a"), 7: V("y")})
	if h.Len() != 1 || !includes(h, 2) {
		t.Errorf("out-of-range entries retained: %v", h)
	}
}

func TestPrefixEqual(t *testing.T) {
	h1 := NewHistory(5, map[Instance]Value{1: V("a"), 3: V("b"), 5: V("c")})
	h2 := NewHistory(7, map[Instance]Value{1: V("a"), 3: V("b"), 5: V("c"), 6: V("z")})
	if !h1.PrefixEqual(h2, 5) {
		t.Error("prefixes through 5 should match")
	}
	h3 := NewHistory(7, map[Instance]Value{1: V("a"), 3: V("X")})
	if h1.PrefixEqual(h3, 3) {
		t.Error("differing value at 3 should fail")
	}
	h4 := NewHistory(7, map[Instance]Value{1: V("a"), 2: V("extra"), 3: V("b")})
	if h1.PrefixEqual(h4, 3) {
		t.Error("⊥ vs value at 2 should fail")
	}
	if !h1.PrefixEqual(h3, 1) {
		t.Error("short prefixes should still match")
	}
}

func TestDigest(t *testing.T) {
	h1 := NewHistory(3, map[Instance]Value{1: V("a"), 3: V("b")})
	h2 := NewHistory(3, map[Instance]Value{1: V("a"), 3: V("b")})
	if digest(h1) != digest(h2) {
		t.Error("equal histories must have equal digests")
	}
	h3 := NewHistory(3, map[Instance]Value{1: V("a"), 2: V("b")})
	if digest(h1) == digest(h3) {
		t.Error("⊥ positions must affect the digest")
	}
	h4 := NewHistory(3, map[Instance]Value{1: V("a"), 3: V("c")})
	if digest(h1) == digest(h4) {
		t.Error("values must affect the digest")
	}
}

func TestDigestChaining(t *testing.T) {
	h := NewHistory(4, map[Instance]Value{1: V("a"), 2: V("b"), 3: V("c"), 4: V("d")})
	full := h.DigestRange(1, 4, 0)
	if full == h.DigestRange(1, 3, 0) {
		t.Error("digest must depend on the prefix length")
	}
	if h.DigestRange(1, 2, 0) == h.DigestRange(1, 2, 99) {
		t.Error("digest must depend on the prior seed")
	}
}

func TestHistoryDigestProperty(t *testing.T) {
	// Digests of a history are insensitive to map construction order.
	f := func(keys []uint8) bool {
		vals := make(map[Instance]Value)
		for _, k := range keys {
			kk := Instance(k%20) + 1
			vals[kk] = V(string(rune('a' + k%26)))
		}
		h1 := NewHistory(20, vals)
		h2 := NewHistory(20, vals)
		return digest(h1) == digest(h2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// includes reports whether h(k) != ⊥.
func includes(h *History, k Instance) bool {
	_, ok := h.At(k)
	return ok
}

// digest folds the whole history, up to its top.
func digest(h *History) uint64 { return h.DigestRange(1, h.Top(), 0) }
