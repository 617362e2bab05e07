package vi

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"vinfra/internal/cha"
	"vinfra/internal/geo"
	"vinfra/internal/sim"
	"vinfra/internal/wire"
)

// appendProgram is a minimal deterministic program whose state is the
// concatenation of everything it has consumed — ideal for checking exactly
// which inputs the state cache applied.
type appendProgram struct{}

func (appendProgram) Init(id VNodeID, _ geo.Point) []byte {
	return []byte(fmt.Sprintf("init(%d)", id))
}

func (appendProgram) OnRound(state []byte, vround int, in RoundInput) []byte {
	if in.Collision && len(in.Msgs) == 0 {
		return []byte(fmt.Sprintf("%s|%d:±", state, vround))
	}
	msgs := make([]string, len(in.Msgs))
	for i, m := range in.Msgs {
		msgs[i] = string(m)
	}
	return []byte(fmt.Sprintf("%s|%d:%v", state, vround, msgs))
}

func (appendProgram) Outgoing(state []byte, vround int) *Message {
	return Text(fmt.Sprintf("out@%d", vround))
}

// testReplica is a virtual node 0 replica's state cache beside the core
// whose histories it folds, on a deployment running a counting
// appendProgram. The core is driven by hand, so every history the cache
// sees is one a core produces. Each stateAt call is made in a radio round
// of its own, so each may publish its last step.
type testReplica struct {
	d     *Deployment
	core  *cha.Core
	sc    stateCache
	calls atomic.Int64 // OnRound calls
	round sim.Round    // the radio round of the last call
}

func newTestReplica() *testReplica {
	r := &testReplica{core: cha.NewCore()}
	r.d = &Deployment{
		programs: []Program{countingProgram{Program: appendProgram{}, n: &r.calls}},
		memos:    make([]atomic.Pointer[vnodeMemo], 1),
	}
	r.sc.resetAt(0, appendProgram{}.Init(0, geo.Point{}))
	return r
}

// adopt closes instance k with the ballot (v, prev) adopted and the
// instance good but not green (a veto-2 collision): the core's prev pointer
// moves to k, and nothing is folded.
func (r *testReplica) adopt(k cha.Instance, v cha.Value, prev cha.Instance) {
	r.core.Begin(k, v)
	r.core.ObserveMinBallot(cha.Ballot{V: v, Prev: prev}, true, false)
	r.core.ObserveVeto1(false, false)
	r.core.ObserveVeto2(false, true)
}

// lose closes instance k red: no ballot heard, nothing adopted.
func (r *testReplica) lose(k cha.Instance) {
	r.core.Begin(k, input())
	r.core.ObserveMinBallot(cha.Ballot{}, false, true)
	r.core.ObserveVeto1(true, false)
	r.core.ObserveVeto2(true, false)
}

// stateAt is the state after the core's history through upTo, and the
// OnRound calls it took.
func (r *testReplica) stateAt(upTo cha.Instance) (string, int64) {
	n := r.calls.Load()
	r.round++
	state := string(r.d.stateAt(0, &r.sc, r.core.HistoryView(), upTo, r.round))
	return state, r.calls.Load() - n
}

func input(msgs ...string) cha.Value {
	in := RoundInput{}
	for _, m := range msgs {
		in.Msgs = append(in.Msgs, []byte(m))
	}
	return in.Encode()
}

func TestStateCacheAppliesHistoryInOrder(t *testing.T) {
	r := newTestReplica()
	r.adopt(1, input("a"), 0)
	r.lose(2)
	r.adopt(3, input("c"), 1)
	want := "init(0)|1:[a]|2:±|3:[c]"
	if got, _ := r.stateAt(3); got != want {
		t.Errorf("state = %q, want %q", got, want)
	}
}

// TestStateCacheIncrementalExtension: a history that extends the chain the
// cache folded resumes from its state and steps only the new positions.
func TestStateCacheIncrementalExtension(t *testing.T) {
	r := newTestReplica()
	r.adopt(1, input("a"), 0)
	r.adopt(2, input("b"), 1)
	first, _ := r.stateAt(2)
	r.adopt(3, input("c"), 2)
	r.lose(4)
	second, calls := r.stateAt(4)
	if second != first+"|3:[c]|4:±" || calls != 2 {
		t.Errorf("incremental state = %q in %d steps, want %q in 2", second, calls, first+"|3:[c]|4:±")
	}
	// A stall ends when a later instance's ballot points back into it: the
	// chain still runs through 3, so only the positions after 4 are new.
	r.adopt(5, input("e"), 3)
	r.adopt(6, input("f"), 5)
	third, calls := r.stateAt(6)
	if third != second+"|5:[e]|6:[f]" || calls != 2 {
		t.Errorf("state after the stall = %q in %d steps, want %q in 2", third, calls, second+"|5:[e]|6:[f]")
	}
}

// TestStateCacheRecomputesOnChainChange: the minimum ballot of a later
// instance can carry a prev pointer that bypasses a position this core
// included (possible before stabilization). The highest included position
// at or below the cached one then differs, and the state is refolded from
// the floor.
func TestStateCacheRecomputesOnChainChange(t *testing.T) {
	r := newTestReplica()
	r.adopt(1, input("a"), 0)
	r.adopt(2, input("b"), 1)
	r.stateAt(2)
	r.adopt(3, input("c"), 1)
	want := "init(0)|1:[a]|2:±|3:[c]"
	if got, calls := r.stateAt(3); got != want || calls != 3 {
		t.Errorf("recomputed state = %q in %d steps, want %q in 3", got, calls, want)
	}
}

// TestStateCacheResetAt: a snapshot installed at a floor is the state the
// positions above it are folded onto.
func TestStateCacheResetAt(t *testing.T) {
	r := newTestReplica()
	r.core.ResetAt(5)
	r.sc.resetAt(5, []byte("snapshot"))
	r.adopt(6, input("x"), 0)
	r.adopt(7, input("y"), 6)
	want := "snapshot|6:[x]|7:[y]"
	if got, _ := r.stateAt(7); got != want {
		t.Errorf("state after snapshot = %q, want %q", got, want)
	}
}

// TestEstimateAtFloorCalculatesNoHistory: an estimate at or below the
// floor — the steady state of a green replica — is the floor's state, read
// without calculating a history (the emulator has no core to calculate
// one with here).
func TestEstimateAtFloorCalculatesNoHistory(t *testing.T) {
	e := &Emulator{d: newTestReplica().d}
	e.cache.resetAt(7, []byte("folded"))
	for _, vr := range []int{4, 8} {
		if got := string(e.estimate(-1, vr)); got != "folded" {
			t.Errorf("estimate entering virtual round %d = %q, want the floor's", vr, got)
		}
	}
}

func TestStateCacheRepeatedQueriesStable(t *testing.T) {
	r := newTestReplica()
	r.adopt(1, input("a"), 0)
	r.adopt(2, input("b"), 1)
	r.adopt(3, input("c"), 2)
	a, _ := r.stateAt(3)
	b, calls := r.stateAt(3)
	if a != b || calls != 0 {
		t.Errorf("repeated query = %q in %d steps, want %q in 0", b, calls, a)
	}
	// Query an earlier point after a later one.
	if early, _ := r.stateAt(1); early != "init(0)|1:[a]" {
		t.Errorf("early state = %q", early)
	}
	if again, _ := r.stateAt(3); again != a {
		t.Errorf("state after the early query = %q, want %q", again, a)
	}
}

func TestStepMalformedValueActsAsCollision(t *testing.T) {
	r := newTestReplica()
	r.adopt(1, cha.V("not-a-proposal"), 0)
	val, ok := r.core.HistoryView().At(1)
	if got := string(r.d.step(0, &r.sc, []byte("s"), val, ok, 1, 1, true)); got != "s|1:±" {
		t.Errorf("malformed value state = %q, want collision semantics", got)
	}
}

type codecState struct {
	N     int
	Words []string
}

// codecStateCodec is the wire codec the Codec tests exercise.
func codecStateCodec() Codec[codecState] {
	return Codec[codecState]{
		InitState: func(id VNodeID, _ geo.Point) codecState {
			return codecState{N: int(id)}
		},
		Step: func(s codecState, vround int, in RoundInput) codecState {
			s.N += len(in.Msgs)
			for _, m := range in.Msgs {
				s.Words = append(s.Words, string(m))
			}
			return s
		},
		Out: func(s codecState, vround int) *Message {
			return Text(fmt.Sprintf("%d", s.N))
		},
		EncodeState: func(dst []byte, s codecState) []byte {
			dst = wire.AppendVarint(dst, int64(s.N))
			dst = wire.AppendUvarint(dst, uint64(len(s.Words)))
			for _, w := range s.Words {
				dst = wire.AppendString(dst, w)
			}
			return dst
		},
		DecodeState: func(d *wire.Decoder) (codecState, error) {
			var s codecState
			s.N = int(d.Varint())
			n := d.Uvarint()
			if d.Err() != nil || n > uint64(d.Rem()) {
				return codecState{}, wire.ErrMalformed
			}
			for i := uint64(0); i < n; i++ {
				s.Words = append(s.Words, d.String())
			}
			return s, d.Err()
		},
	}
}

func bmsgs(ss ...string) [][]byte {
	out := make([][]byte, len(ss))
	for i, s := range ss {
		out[i] = []byte(s)
	}
	return out
}

func TestCodecRoundTrip(t *testing.T) {
	c := codecStateCodec()
	st := c.Init(7, geo.Point{})
	st = c.OnRound(st, 1, RoundInput{Msgs: bmsgs("x", "y")})
	st = c.OnRound(st, 2, RoundInput{Msgs: bmsgs("z")})
	out := c.Outgoing(st, 3)
	if out == nil || string(out.Payload) != "10" {
		t.Fatalf("out = %+v, want 10 (7+3)", out)
	}
	decoded := c.decode(st)
	if decoded.N != 10 || len(decoded.Words) != 3 {
		t.Errorf("decoded = %+v", decoded)
	}
}

func TestCodecDeterministicEncoding(t *testing.T) {
	c := codecStateCodec()
	in := RoundInput{Msgs: bmsgs("a", "b")}
	s1 := c.OnRound(c.Init(0, geo.Point{}), 1, in)
	s2 := c.OnRound(c.Init(0, geo.Point{}), 1, in)
	if !bytes.Equal(s1, s2) {
		t.Error("identical inputs must produce identical encoded states")
	}
}

func TestCodecNilOut(t *testing.T) {
	c := codecStateCodec()
	c.Out = nil
	if got := c.Outgoing(c.Init(0, geo.Point{}), 1); got != nil {
		t.Errorf("nil Out should yield silent program, got %+v", got)
	}
}

func TestCodecDecodeEmptyIsZero(t *testing.T) {
	c := codecStateCodec()
	s := c.decode(nil)
	if s.N != 0 || s.Words != nil {
		t.Errorf("empty raw state should decode to zero value: %+v", s)
	}
}

func TestCodecMalformedStatePanics(t *testing.T) {
	c := codecStateCodec()
	defer func() {
		if recover() == nil {
			t.Error("decoding garbage state must panic (programming error)")
		}
	}()
	c.decode([]byte{0xff})
}

func TestCodecWithoutEncoderPanics(t *testing.T) {
	c := Codec[codecState]{
		InitState: func(VNodeID, geo.Point) codecState { return codecState{} },
		Step:      func(s codecState, _ int, _ RoundInput) codecState { return s },
	}
	defer func() {
		if recover() == nil {
			t.Error("Codec without EncodeState must panic")
		}
	}()
	c.Init(0, geo.Point{})
}
