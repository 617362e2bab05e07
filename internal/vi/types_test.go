package vi

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"vinfra/internal/cha"
)

func TestRoundInputEncodeDecodeRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		in   RoundInput
	}{
		{"empty", RoundInput{}},
		{"collision only", RoundInput{Collision: true}},
		{"broadcast only", RoundInput{VNBroadcast: true}},
		{"one message", RoundInput{Msgs: bmsgs("hello")}},
		{"several messages", RoundInput{Msgs: bmsgs("a", "bb", "ccc"), Collision: true, VNBroadcast: true}},
		{"payload with separators", RoundInput{Msgs: bmsgs("x|7:y", ":|:")}},
		{"empty payload", RoundInput{Msgs: bmsgs("")}},
		{"binary payload", RoundInput{Msgs: [][]byte{{0x00, 0xff, 0x80}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v := tt.in.Encode()
			got, err := DecodeRoundInput(v)
			if err != nil {
				t.Fatal(err)
			}
			want := tt.in
			want.Msgs = append([][]byte(nil), tt.in.Msgs...)
			want.Normalize()
			if got.Collision != want.Collision || got.VNBroadcast != want.VNBroadcast {
				t.Errorf("flags: got %+v, want %+v", got, want)
			}
			if len(got.Msgs) != len(want.Msgs) {
				t.Fatalf("msgs: got %v, want %v", got.Msgs, want.Msgs)
			}
			for i := range got.Msgs {
				if !bytes.Equal(got.Msgs[i], want.Msgs[i]) {
					t.Errorf("msg %d: %q != %q", i, got.Msgs[i], want.Msgs[i])
				}
			}
		})
	}
}

func TestRoundInputEncodeCanonical(t *testing.T) {
	a := RoundInput{Msgs: bmsgs("b", "a", "b")}
	b := RoundInput{Msgs: bmsgs("a", "b")}
	if !a.Encode().Equal(b.Encode()) {
		t.Error("permuted/duplicated inputs must encode identically")
	}
}

func TestRoundInputEncodeDoesNotMutate(t *testing.T) {
	in := RoundInput{Msgs: bmsgs("b", "a")}
	in.Encode()
	if string(in.Msgs[0]) != "b" {
		t.Error("Encode mutated the caller's slice")
	}
}

func TestNormalizeDedup(t *testing.T) {
	in := RoundInput{Msgs: bmsgs("z", "a", "z", "a", "m")}
	in.Normalize()
	if !reflect.DeepEqual(in.Msgs, bmsgs("a", "m", "z")) {
		t.Errorf("Normalize = %v", in.Msgs)
	}
}

func TestDecodeRoundInputErrors(t *testing.T) {
	bad := [][]byte{
		{},                 // no flags byte
		{0x04},             // undefined flag bit
		{0x03},             // flags but no count
		{0x00, 0x01},       // count 1, no message
		{0x00, 0x01, 0x05}, // message length past the end
		{0x00, 0x00, 0x00}, // trailing garbage
	}
	for _, b := range bad {
		if _, err := DecodeRoundInput(cha.ValueOf(b)); err == nil {
			t.Errorf("DecodeRoundInput(% x) should fail", b)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(msgs [][]byte, coll, vnb bool) bool {
		in := RoundInput{Msgs: msgs, Collision: coll, VNBroadcast: vnb}
		got, err := DecodeRoundInput(in.Encode())
		if err != nil {
			return false
		}
		want := RoundInput{Msgs: append([][]byte(nil), msgs...), Collision: coll, VNBroadcast: vnb}
		want.Normalize()
		if len(got.Msgs) != len(want.Msgs) {
			return false
		}
		for i := range got.Msgs {
			if !bytes.Equal(got.Msgs[i], want.Msgs[i]) {
				return false
			}
		}
		return got.Collision == want.Collision && got.VNBroadcast == want.VNBroadcast
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWireSizesExact pins every emulation message's WireSize to the length
// of its actual encoding (or, for the signal-only messages, to one byte).
func TestWireSizesExact(t *testing.T) {
	if got := (ClientMsg{Payload: []byte("abc")}).WireSize(); got != 5 {
		t.Errorf("ClientMsg size = %d, want 5 (tag + len + 3)", got)
	}
	if got := (VNMsg{Payload: []byte("abc")}).WireSize(); got != 5 {
		t.Errorf("VNMsg size = %d, want 5", got)
	}
	if got := (JoinReqMsg{}).WireSize(); got != 1 {
		t.Errorf("JoinReqMsg size = %d", got)
	}
	if got := (ResetGuardMsg{}).WireSize(); got != 1 {
		t.Errorf("ResetGuardMsg size = %d", got)
	}
	ack := JoinAckMsg{StateFloor: 130, State: []byte("state"), Snap: cha.CoreSnapshot{
		Ballots:    []cha.Ballot{{V: cha.V("xy"), Prev: 7}},
		BallotKeys: []cha.Instance{131},
		Statuses:   []cha.Color{cha.Yellow},
		StatusKeys: []cha.Instance{131},
	}}
	if got, enc := ack.WireSize(), len(ack.AppendTo(nil)); got != enc {
		t.Errorf("JoinAckMsg WireSize = %d, encoded %d bytes", got, enc)
	}
}

func TestJoinAckRoundTrip(t *testing.T) {
	ack := JoinAckMsg{StateFloor: 9, State: []byte{0x01, 0x00, 0xfe}, Snap: cha.CoreSnapshot{
		Floor:      9,
		K:          12,
		Prev:       11,
		BallotKeys: []cha.Instance{10, 11},
		Ballots:    []cha.Ballot{{V: cha.V("a"), Prev: 9}, {V: cha.Value{}, Prev: 10}},
		StatusKeys: []cha.Instance{12},
		Statuses:   []cha.Color{cha.Red},
	}}
	got, err := DecodeJoinAckMsg(ack.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.StateFloor != ack.StateFloor || !bytes.Equal(got.State, ack.State) {
		t.Errorf("header round trip: %+v", got)
	}
	if len(got.Snap.Ballots) != 2 || !got.Snap.Ballots[0].Equal(ack.Snap.Ballots[0]) {
		t.Errorf("snapshot ballots round trip: %+v", got.Snap)
	}
	if !reflect.DeepEqual(got.Snap.StatusKeys, ack.Snap.StatusKeys) ||
		!reflect.DeepEqual(got.Snap.Statuses, ack.Snap.Statuses) {
		t.Errorf("snapshot statuses round trip: %+v", got.Snap)
	}
	// The restored core behaves like the original.
	if core, err := cha.RestoreCore(got.Snap); err != nil || core.Prev() != 11 {
		t.Errorf("restored core prev differs (err %v)", err)
	}
}

func TestDecodeJoinAckErrors(t *testing.T) {
	ack := JoinAckMsg{StateFloor: 3, State: []byte("s")}
	enc := ack.AppendTo(nil)
	for _, b := range [][]byte{
		{},                                    // empty
		enc[:len(enc)-1],                      // truncated
		append(enc[:len(enc):len(enc)], 0x00), // trailing garbage
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // varint overflow
	} {
		if _, err := DecodeJoinAckMsg(b); err == nil {
			t.Errorf("DecodeJoinAckMsg(% x) should fail", b)
		}
	}
}

// FuzzDecodeRoundInput feeds adversarial bytes to the proposal decoder: it
// must never panic, and anything it accepts must reach an encode/decode
// fixed point (Encode canonicalizes; decoding the canonical form again
// must reproduce it).
func FuzzDecodeRoundInput(f *testing.F) {
	f.Add([]byte{})
	f.Add(RoundInput{Msgs: bmsgs("a", "bb"), Collision: true}.Encode().Bytes())
	f.Add(RoundInput{VNBroadcast: true}.Encode().Bytes())
	f.Add([]byte{0x03, 0x02, 0x01, 0x41, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := DecodeRoundInput(cha.ValueOf(data))
		if err != nil {
			return
		}
		enc := in.Encode()
		again, err := DecodeRoundInput(enc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !again.Encode().Equal(enc) {
			t.Fatal("encode/decode did not reach a fixed point")
		}
	})
}

// FuzzDecodeJoinAck feeds adversarial bytes to the join-ack decoder: no
// panics, accepted acks must re-encode to the exact input (the encoding is
// canonical), and the core an ack carries must restore (to the same bytes)
// or be refused.
func FuzzDecodeJoinAck(f *testing.F) {
	f.Add([]byte{})
	f.Add(JoinAckMsg{StateFloor: 2, State: []byte("snap")}.AppendTo(nil))
	full := JoinAckMsg{StateFloor: 1, State: []byte{0xff}, Snap: cha.CoreSnapshot{
		K: 3, Prev: 2,
		BallotKeys: []cha.Instance{3},
		Ballots:    []cha.Ballot{{V: cha.V("v"), Prev: 2}},
		StatusKeys: []cha.Instance{2},
		Statuses:   []cha.Color{cha.Orange},
	}}
	f.Add(full.AppendTo(nil))
	for _, c := range hostileCores() {
		f.Add(JoinAckMsg{StateFloor: c.Floor, State: []byte("s"), Snap: c}.AppendTo(nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeJoinAckMsg(data)
		if err != nil {
			return
		}
		enc := m.AppendTo(nil)
		if !bytes.Equal(enc, data) {
			t.Fatalf("accepted ack re-encodes to % x, input % x", enc, data)
		}
		if m.WireSize() != len(enc) {
			t.Fatalf("WireSize %d != encoded length %d", m.WireSize(), len(enc))
		}
		checkCoreRestores(t, m.Snap)
	})
}
