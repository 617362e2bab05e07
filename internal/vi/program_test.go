package vi

import (
	"bytes"
	"fmt"
	"testing"

	"vinfra/internal/cha"
	"vinfra/internal/geo"
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

func historyOf(top cha.Instance, vals map[cha.Instance]cha.Value) *cha.History {
	return cha.NewHistory(top, vals)
}

func input(msgs ...string) cha.Value {
	in := RoundInput{}
	for _, m := range msgs {
		in.Msgs = append(in.Msgs, []byte(m))
	}
	return in.Encode()
}

func TestStateCacheAppliesHistoryInOrder(t *testing.T) {
	sc := newStateCache(appendProgram{}, 3, geo.Point{})
	h := historyOf(3, map[cha.Instance]cha.Value{
		1: input("a"),
		3: input("c"),
	})
	got := string(sc.stateBefore(h, 4)) // state after instances 1..3
	want := "init(3)|1:[a]|2:±|3:[c]"
	if got != want {
		t.Errorf("state = %q, want %q", got, want)
	}
}

func TestStateCacheIncrementalExtension(t *testing.T) {
	sc := newStateCache(appendProgram{}, 0, geo.Point{})
	h1 := historyOf(2, map[cha.Instance]cha.Value{1: input("a"), 2: input("b")})
	first := string(sc.stateBefore(h1, 3))

	// Extend the same chain: the cache must reuse the prefix.
	h2 := historyOf(4, map[cha.Instance]cha.Value{
		1: input("a"), 2: input("b"), 3: input("c"), 4: input("d"),
	})
	second := string(sc.stateBefore(h2, 5))
	if second != first+"|3:[c]|4:[d]" {
		t.Errorf("incremental state = %q", second)
	}
}

func TestStateCacheRecomputesOnChainChange(t *testing.T) {
	sc := newStateCache(appendProgram{}, 0, geo.Point{})
	h1 := historyOf(2, map[cha.Instance]cha.Value{1: input("a"), 2: input("b")})
	sc.stateBefore(h1, 3)

	// A different chain for the same prefix (instance 2 now ⊥ — possible
	// before stabilization when a later ballot bypasses it).
	h2 := historyOf(3, map[cha.Instance]cha.Value{1: input("a"), 3: input("c")})
	got := string(sc.stateBefore(h2, 4))
	want := "init(0)|1:[a]|2:±|3:[c]"
	if got != want {
		t.Errorf("recomputed state = %q, want %q", got, want)
	}
}

func TestStateCacheResetAt(t *testing.T) {
	sc := newStateCache(appendProgram{}, 0, geo.Point{})
	sc.resetAt(5, []byte("snapshot"))
	h := historyOf(7, map[cha.Instance]cha.Value{6: input("x"), 7: input("y")})
	got := string(sc.stateBefore(h, 8))
	want := "snapshot|6:[x]|7:[y]"
	if got != want {
		t.Errorf("state after snapshot = %q, want %q", got, want)
	}
	// Queries below the snapshot floor return the snapshot itself.
	if got := string(sc.stateBefore(h, 4)); got != "snapshot" {
		t.Errorf("below-floor state = %q", got)
	}
}

func TestStateCacheRepeatedQueriesStable(t *testing.T) {
	sc := newStateCache(appendProgram{}, 0, geo.Point{})
	h := historyOf(3, map[cha.Instance]cha.Value{1: input("a"), 2: input("b"), 3: input("c")})
	a := string(sc.stateBefore(h, 4))
	b := string(sc.stateBefore(h, 4))
	c := string(sc.stateBefore(h, 4))
	if a != b || b != c {
		t.Error("repeated identical queries must be stable")
	}
	// Query an earlier point after a later one.
	early := string(sc.stateBefore(h, 2))
	if early != "init(0)|1:[a]" {
		t.Errorf("early state = %q", early)
	}
}

func TestApplyInstanceMalformedValueActsAsCollision(t *testing.T) {
	h := historyOf(1, map[cha.Instance]cha.Value{1: cha.V("not-a-proposal")})
	got := string(applyInstance(appendProgram{}, []byte("s"), h, 1))
	if got != "s|1:±" {
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
