package vi_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"vinfra/internal/apps"
	"vinfra/internal/cha"
	"vinfra/internal/geo"
	"vinfra/internal/sim"
	"vinfra/internal/vi"
	"vinfra/internal/wire"
)

// nodeStateFixture is one live node's state blob, and a second node of the
// same kind, in another state, to lay it over.
type nodeStateFixture struct {
	name string
	blob []byte
	into sim.Snapshotter
}

// replicaBed is one virtual node with two fixed-leader replicas and a
// client pinging every virtual round.
func replicaBed(t testing.TB) *testbed {
	tb := newTestbed(t, testbedOpts{locs: []geo.Point{{X: 0, Y: 0}}, replicasPer: 2, leaders: true})
	tb.addClient(geo.Point{X: 1, Y: -1}, vi.ClientFunc(func(vr int, _ []vi.Message, _ bool) *vi.Message {
		return vi.Text(fmt.Sprintf("ping-%d", vr))
	}))
	return tb
}

// emulatorStateFixtures are a replica and a joiner, each with a node of
// its kind to lay the blob over.
func emulatorStateFixtures(t *testing.T) []nodeStateFixture {
	t.Helper()
	// A replica three radio rounds into a virtual round: the ping and its
	// virtual node's broadcast are in its round input, its expected payload
	// is set and its ballot is out.
	tb := replicaBed(t)
	tb.runVRounds(3)
	tb.eng.Run(3)
	replica := nodeStateFixture{"replica", tb.emulators[1].AppendState(nil), tb.emulators[0]}

	// A device that arrived without state and has sent its join request
	// (join phase, offset s+9) but not yet heard the ack (offset s+10).
	tb = replicaBed(t)
	tb.runVRounds(2)
	var joiner *vi.Emulator
	tb.eng.Attach(geo.Point{X: 0.5, Y: 0.5}, nil, func(env sim.Env) sim.Node {
		joiner = tb.dep.NewEmulator(env, false)
		return joiner
	})
	tb.eng.Run(tb.dep.Timing().S + 10)
	join := nodeStateFixture{"joiner", joiner.AppendState(nil), tb.emulators[0]}
	return []nodeStateFixture{replica, join}
}

// clientStateFixture is a tracking observer two radio rounds into a
// virtual round: the target's beacon and the digest are pending for its
// next Step, and its program holds the sightings of earlier digests.
func clientStateFixture(t *testing.T) nodeStateFixture {
	t.Helper()
	tb := newTestbed(t, testbedOpts{locs: []geo.Point{{X: 0, Y: 0}}, replicasPer: 2, leaders: true, program: apps.TrackerProgram})
	target := geo.Point{X: 1, Y: -1}
	tb.addClient(target, &apps.TargetClient{Name: "t1", Period: 1, Pos: func() geo.Point { return target }})
	observer := tb.addClient(geo.Point{X: -1, Y: 1}, &apps.ObserverClient{})
	tb.runVRounds(3)
	tb.eng.Run(2)
	return nodeStateFixture{"observer", observer.AppendState(nil), tb.addClient(geo.Point{X: -1, Y: 0}, &apps.ObserverClient{})}
}

// checkStatePinned pins the bytes each fixture's node writes into every
// checkpoint — they feed the checkpoint digests the benchmark and the
// golden runs compare — and requires each blob laid over another node to
// read back unchanged.
func checkStatePinned(t *testing.T, fixtures []nodeStateFixture, want map[string]string) {
	t.Helper()
	for _, f := range fixtures {
		if got := hex.EncodeToString(f.blob); got != want[f.name] {
			t.Errorf("%s state\n got %s\nwant %s", f.name, got, want[f.name])
		}
		if err := f.into.RestoreState(f.blob); err != nil {
			t.Fatalf("%s: restore: %v", f.name, err)
		}
		if got := f.into.AppendState(nil); !bytes.Equal(got, f.blob) {
			t.Errorf("%s: restored node writes % x, want % x", f.name, got, f.blob)
		}
	}
}

// TestEmulatorSnapshotRoundTrip pins the state blobs of a replica
// mid-vround and of a joiner between request and ack, and their round
// trip through another emulator.
func TestEmulatorSnapshotRoundTrip(t *testing.T) {
	checkStatePinned(t, emulatorStateFixtures(t), map[string]string{
		"replica": "0001010002040302030902010670696e672d3302040902010670696e672d3403000003180303030670696e672d31" +
			"0670696e672d320670696e672d33010670696e672d340001010107636f756e743d3300000000",
		"joiner": "000001000000000000000000010670696e672d33000000000000000100",
	})
}

// TestClientSnapshotRoundTrip pins the state blob of a tracking observer
// client with pending receptions and a program blob, and its round trip
// through another client.
func TestClientSnapshotRoundTrip(t *testing.T) {
	checkStatePinned(t, []nodeStateFixture{clientStateFixture(t)}, map[string]string{
		"observer": "0000021431027431000000000000f03f000000000000f0bf163201027431000000000000f03f000000000000f0bf" +
			"03001501027431000000000000f03f000000000000f0bf02",
	})
}

// splitCore cuts an emulator blob around its agreement core: the fields
// before it (vnode, joined, contention manager blob), the core, and the
// bytes after it.
func splitCore(b []byte) (head []byte, core cha.CoreSnapshot, tail []byte, err error) {
	d := wire.Dec(b)
	d.Varint()
	d.Bool()
	d.Bytes()
	head = b[:len(b)-d.Rem()]
	core, err = cha.DecodeCoreSnapshot(&d)
	return head, core, b[len(b)-d.Rem():], err
}

// withCore returns emulator blob b with its agreement core replaced by the
// one edit makes of it.
func withCore(t testing.TB, b []byte, edit func(*cha.CoreSnapshot)) []byte {
	t.Helper()
	head, core, tail, err := splitCore(b)
	if err != nil {
		t.Fatalf("emulator blob has no core: %v", err)
	}
	edit(&core)
	return append(core.AppendTo(bytes.Clone(head)), tail...)
}

// TestEmulatorRestoreRefusesBadCore: the emulator hands a blob's core to
// cha.RestoreCore and passes its refusal on — an error the engine's restore
// returns and the daemon quarantines on, where the map core would have
// swallowed the blob and the window core indexed out of range.
func TestEmulatorRestoreRefusesBadCore(t *testing.T) {
	tb := newTestbed(t, testbedOpts{
		locs:        []geo.Point{{X: 0, Y: 0}},
		replicasPer: 2,
		leaders:     true,
	})
	tb.runVRounds(4)
	em := tb.emulators[1]
	good := em.AppendState(nil)
	if err := em.RestoreState(good); err != nil {
		t.Fatalf("an emulator's own state must restore: %v", err)
	}
	bad := withCore(t, good, func(c *cha.CoreSnapshot) { c.K = 1 << 40 })
	if err := em.RestoreState(bad); err == nil || !strings.Contains(err.Error(), "cha: restore") {
		t.Fatalf("RestoreState with K = 2^40: err %v, want the core's refusal", err)
	}
	if err := em.RestoreState(good); err != nil {
		t.Fatalf("the emulator must take a good blob after refusing a bad one: %v", err)
	}
	tb.runVRounds(2)
	if got, want := string(em.StateBefore(7)), string(tb.emulators[0].StateBefore(7)); got != want {
		t.Errorf("restored replica diverged: %q vs %q", got, want)
	}
}

// TestEmulatorRestoreRefusesNegativeVNode: a vnode below None names no
// region — entering it would index the deployment's locations and programs
// at -2 — so the blob is refused and the emulator keeps the state it had.
func TestEmulatorRestoreRefusesNegativeVNode(t *testing.T) {
	for _, leaders := range []bool{true, false} {
		tb := newTestbed(t, testbedOpts{locs: []geo.Point{{X: 0, Y: 0}}, replicasPer: 2, leaders: leaders})
		tb.runVRounds(2)
		em := tb.emulators[1]
		before := em.AppendState(nil)
		d := wire.Dec(before)
		if vn := d.Varint(); vn != 0 {
			t.Fatalf("replica serves vnode %d, want 0", vn)
		}
		bad := append(wire.AppendVarint(nil, -2), before[len(before)-d.Rem():]...)
		if err := em.RestoreState(bad); err == nil || !strings.Contains(err.Error(), "vnode -2") {
			t.Errorf("leaders %v: RestoreState with vnode -2: err %v, want a vnode out of range", leaders, err)
		}
		if after := em.AppendState(nil); !bytes.Equal(after, before) {
			t.Errorf("leaders %v: a refused blob changed the emulator", leaders)
		}
	}
}

// TestNodeStateRefusesMalformed: every blob the emulator's and the client's
// RestoreState could not have been handed by AppendState is refused — a
// count the bytes left cannot hold, a bool other than 0 or 1, trailing or
// missing bytes, a vnode outside the deployment, state where AppendState
// writes none, a program blob for a program that keeps no state.
func TestNodeStateRefusesMalformed(t *testing.T) {
	tb := replicaBed(t)
	tb.runVRounds(3)
	tb.eng.Run(3)
	replica := tb.emulators[1].AppendState(nil)
	d := wire.Dec(replica)
	d.Varint()
	afterVN := replica[len(replica)-d.Rem():]
	withVN := func(vn int64) []byte { return append(wire.AppendVarint(nil, vn), afterVN...) }
	ping := tb.clients[0].AppendState(nil)
	notJoined := []byte{0x01, 0x00, 0x00, 0, 0, 0, 0, 0, 0, 0, 0} // vnode None, not joined, no manager or core
	cases := []struct {
		name string
		into sim.Snapshotter
		blob []byte
	}{
		{"emulator truncated", tb.emulators[0], replica[:len(replica)-1]},
		{"emulator trailing byte", tb.emulators[0], append(bytes.Clone(replica), 0)},
		{"emulator bool 2", tb.emulators[0], append(bytes.Clone(replica[:len(replica)-1]), 2)},
		{"emulator message count", tb.emulators[0], append(bytes.Clone(notJoined), 0x7f)},
		{"emulator vnode past the deployment", tb.emulators[0], withVN(1)},
		{"emulator joined outside every region", tb.emulators[0], withVN(-1)},
		{"client receptions count", tb.clients[0], []byte{0x01, 'x', 0x00, 0x7f}},
		{"client program blob on a stateless program", tb.clients[0], append(bytes.Clone(ping[:len(ping)-1]), 0x01, 0x07)},
	}
	for _, c := range cases {
		before := c.into.AppendState(nil)
		if err := c.into.RestoreState(c.blob); err == nil {
			t.Errorf("%s: % x accepted", c.name, c.blob)
		}
		if after := c.into.AppendState(nil); !bytes.Equal(after, before) {
			t.Errorf("%s: a refused blob changed the node", c.name)
		}
	}
}

// FuzzEmulatorRestoreState lays arbitrary bytes over a live emulator: it
// must never panic, a blob it accepts must be what the emulator then writes
// (the encoding is canonical), and the core a blob carries must restore (to
// the same bytes) or be refused.
func FuzzEmulatorRestoreState(f *testing.F) {
	tb := replicaBed(f)
	var outside *vi.Emulator
	tb.eng.Attach(geo.Point{X: 100, Y: 100}, nil, func(env sim.Env) sim.Node {
		outside = tb.dep.NewEmulator(env, true)
		return outside
	})
	tb.runVRounds(3)
	tb.eng.Run(3)
	replica := tb.emulators[1].AppendState(nil)
	f.Add([]byte{})
	f.Add(outside.AppendState(nil))
	f.Add(replica)
	f.Add(tb.emulators[0].AppendState(nil))
	for _, c := range vi.HostileCores() {
		f.Add(withCore(f, replica, func(s *cha.CoreSnapshot) { *s = c }))
	}
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		em := replicaBed(t).emulators[0]
		if err := em.RestoreState(data); err == nil {
			if out := em.AppendState(nil); !bytes.Equal(out, data) {
				t.Fatalf("accepted blob re-encodes to % x, input % x", out, data)
			}
		}
		if _, core, _, err := splitCore(data); err == nil {
			vi.CheckCoreRestores(t, core)
		}
	})
}
