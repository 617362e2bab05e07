// Package cha implements Convergent History Agreement (CHA), the paper's
// core contribution (Section 3): an iterated agreement abstraction for
// collision-prone single-hop radio networks, and CHAP, the protocol of
// Figure 1 that solves it in three communication rounds per instance with
// constant-size messages.
//
// Each agreement instance k either outputs a history — a partial map from
// instance indexes to values — or ⊥. The guarantees (Section 3.2) are:
//
//   - Validity: every value in an output history was proposed for the
//     corresponding instance.
//   - Agreement: any two output histories agree on their common prefix.
//   - Liveness: once the channel, collision detectors, and contention
//     manager stabilize, every instance outputs a history that includes
//     every instance since stabilization.
package cha

import (
	"bytes"
	"fmt"
	"strings"

	"vinfra/internal/wire"
)

// Value is a proposal value, an element of the totally ordered domain V:
// an immutable byte string under the bytewise ordering, carrying a cached
// FNV-1a digest of its contents. The empty value is legal (distinct from
// ⊥, which is represented by absence).
//
// The digest is computed once at construction and reused every time the
// value is folded into a history digest, so digesting a history prefix
// costs O(positions), not O(total value bytes) — the state cache and the
// checkpointing variant digest prefixes every virtual round.
//
// Values treat their bytes as immutable: constructors own or copy their
// input, and Bytes returns a view callers must not mutate.
type Value struct {
	b []byte
	d wire.Digest // FNV-1a of b; 0 only for the zero Value (computed lazily)
}

// ValueOf wraps b as a Value, taking ownership (b must not be mutated
// afterwards) and caching its digest.
func ValueOf(b []byte) Value {
	return Value{b: b, d: wire.DigestOf(b)}
}

// V builds a Value from a string (copying it). It is the literal-friendly
// constructor for tests and proposal functions.
func V(s string) Value { return ValueOf([]byte(s)) }

// Bytes returns the value's byte content as a read-only view.
func (v Value) Bytes() []byte { return v.b }

// String returns the value's bytes as a string.
func (v Value) String() string { return string(v.b) }

// Len returns the value's length in bytes.
func (v Value) Len() int { return len(v.b) }

// Digest returns the cached FNV-1a digest of the value's bytes.
func (v Value) Digest() wire.Digest {
	if v.d == 0 && len(v.b) == 0 {
		return wire.NewDigest()
	}
	return v.d
}

// Equal reports bytewise equality. The cached digests reject unequal
// values without comparing bytes.
func (v Value) Equal(o Value) bool {
	if len(v.b) != len(o.b) {
		return false
	}
	if v.d != 0 && o.d != 0 && v.d != o.d {
		return false
	}
	return bytes.Equal(v.b, o.b)
}

// Compare orders values bytewise (the total order of the domain V).
func (v Value) Compare(o Value) int { return bytes.Compare(v.b, o.b) }

// Instance indexes an agreement instance; instances are numbered from 1.
// Instance 0 is the sentinel meaning "no instance" (the initial
// prev-instance of Figure 1).
type Instance int

// Color is the per-instance status lattice of CHAP (Figure 1):
// red < orange < yellow < green. A node's color for an instance reflects
// its local knowledge about other nodes' knowledge of the instance;
// downgrades move toward red via min, and the protocol maintains that no
// two nodes' colors for the same instance differ by more than one shade
// (Property 4 / Lemma 5).
type Color uint8

// Colors, in lattice order.
const (
	Red Color = iota + 1
	Orange
	Yellow
	Green
)

// String implements fmt.Stringer.
func (c Color) String() string {
	switch c {
	case Red:
		return "red"
	case Orange:
		return "orange"
	case Yellow:
		return "yellow"
	case Green:
		return "green"
	default:
		return fmt.Sprintf("color(%d)", uint8(c))
	}
}

// Good reports whether the color designates a good instance (yellow or
// green), i.e. one at which the prev-instance pointer advances.
func (c Color) Good() bool { return c >= Yellow }

// minColor returns the darker (smaller) of two colors — the downgrade
// operation of Figure 1 lines 35 and 38.
func minColor(a, b Color) Color {
	if a < b {
		return a
	}
	return b
}

// Ballot is the constant-size ballot message payload of Figure 1 line 16:
// the proposal for the current instance together with the broadcaster's
// prev-instance pointer.
type Ballot struct {
	V    Value
	Prev Instance
}

// Less orders ballots lexicographically by (V, Prev); CHAP receivers adopt
// the minimum ballot deterministically (Figure 1 line 32).
func (b Ballot) Less(o Ballot) bool {
	if c := b.V.Compare(o.V); c != 0 {
		return c < 0
	}
	return b.Prev < o.Prev
}

// Equal reports whether two ballots carry the same value and prev pointer.
// (Ballot holds a byte-backed Value, so == does not apply.)
func (b Ballot) Equal(o Ballot) bool {
	return b.Prev == o.Prev && b.V.Equal(o.V)
}

// MinBallot returns the minimum of a non-empty ballot set.
func MinBallot(bs []Ballot) Ballot {
	min := bs[0]
	for _, b := range bs[1:] {
		if b.Less(min) {
			min = b
		}
	}
	return min
}

// History is an output of a CHA instance: a function from instances
// 1..Top() to Value-or-⊥. Only a window of it is stored — position k lives
// at index k − floor − 1 of a slice — and every position outside the slice
// is ⊥: those at or below floor were folded into a checkpoint
// (Section 3.5), those past its end were never on the chain. At is a bounds
// check and an index.
//
// A History reached through Output.History is freshly allocated and
// immutable once published by the protocol; callers may retain it. The one
// returned by Core.HistoryView is the core's own scratch and is overwritten
// by the core's next history calculation — read it and drop it.
type History struct {
	top, floor Instance
	ents       []position
	// short backs ents while the window is this short — and after every
	// green instance it is, the last one and the current — so that a
	// calculated history is one allocation, not two.
	short [2]position
}

// position is one stored history position; the zero value is ⊥.
type position struct {
	v  Value
	ok bool
}

// NewHistory builds a history with the given top instance and entries; it
// is exported for tests and for baseline implementations.
func NewHistory(top Instance, vals map[Instance]Value) *History {
	lo, hi := top+1, Instance(0)
	for k := range vals {
		if k >= 1 && k <= top {
			lo, hi = min(lo, k), max(hi, k)
		}
	}
	h := &History{top: top}
	if hi == 0 {
		return h
	}
	h.floor = lo - 1
	h.ents = make([]position, hi-h.floor)
	for k, v := range vals {
		if k >= lo && k <= hi {
			h.ents[k-lo] = position{v: v, ok: true}
		}
	}
	return h
}

// Top returns the instance this history was output for; entries beyond Top
// are undefined.
func (h *History) Top() Instance { return h.top }

// At returns the value at instance k and whether the history includes k
// (false means ⊥).
func (h *History) At(k Instance) (Value, bool) {
	if i := k - h.floor - 1; i >= 0 && int(i) < len(h.ents) {
		return h.ents[i].v, h.ents[i].ok
	}
	return Value{}, false
}

// Includes reports whether h(k) != ⊥.
func (h *History) Includes(k Instance) bool {
	_, ok := h.At(k)
	return ok
}

// Included returns the included instances in increasing order.
func (h *History) Included() []Instance {
	out := make([]Instance, 0, len(h.ents))
	for i, e := range h.ents {
		if e.ok {
			out = append(out, h.floor+1+Instance(i))
		}
	}
	return out
}

// Len returns the number of included instances.
func (h *History) Len() int {
	n := 0
	for _, e := range h.ents {
		if e.ok {
			n++
		}
	}
	return n
}

// PrefixEqual reports whether h and o agree on every instance up to and
// including k (both the included values and the ⊥ positions) — the
// Agreement relation of Section 3.2.
func (h *History) PrefixEqual(o *History, k Instance) bool {
	for i := Instance(1); i <= k; i++ {
		v1, ok1 := h.At(i)
		v2, ok2 := o.At(i)
		if ok1 != ok2 || !v1.Equal(v2) {
			return false
		}
	}
	return true
}

// foldPosition chains one history position into a running digest. Because
// the digest is a strict position-by-position fold, folding a history in
// segments (as the checkpointing variant does, Section 3.5) produces the
// same value as folding it in one pass. Present positions fold the value's
// cached digest and length rather than its bytes, so re-digesting a prefix
// never re-hashes full proposal values (and, unlike the old hash/fnv
// implementation, allocates nothing).
func foldPosition(d uint64, k Instance, v Value, present bool) uint64 {
	h := wire.NewDigest().FoldUint64(d).FoldUint64(uint64(k))
	if present {
		h = h.FoldByte(1).FoldUint64(uint64(v.Digest())).FoldUint64(uint64(v.Len()))
	} else {
		h = h.FoldByte(0)
	}
	return uint64(h)
}

// DigestRange folds positions from..to (inclusive, ⊥ positions included)
// into a 64-bit digest seeded by prior. Chaining segment digests equals a
// single-pass digest over the union.
func (h *History) DigestRange(from, to Instance, prior uint64) uint64 {
	d := prior
	for i := from; i <= to; i++ {
		v, ok := h.At(i)
		d = foldPosition(d, i, v, ok)
	}
	return d
}

// DigestUpTo folds the history's prefix up to and including k into a
// 64-bit digest, seeded by prior. It is the checkpoint digest of the
// garbage-collected variant (Section 3.5).
func (h *History) DigestUpTo(k Instance, prior uint64) uint64 {
	return h.DigestRange(1, k, prior)
}

// Digest folds the entire history (up to Top) into a 64-bit digest.
func (h *History) Digest() uint64 { return h.DigestUpTo(h.top, 0) }

// String renders the history as e.g. "[1:a 2:⊥ 3:b]" for diagnostics.
func (h *History) String() string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i := Instance(1); i <= h.top; i++ {
		if i > 1 {
			sb.WriteByte(' ')
		}
		if v, ok := h.At(i); ok {
			fmt.Fprintf(&sb, "%d:%s", i, v.String())
		} else {
			fmt.Fprintf(&sb, "%d:⊥", i)
		}
	}
	sb.WriteByte(']')
	return sb.String()
}
