package vi

import (
	"fmt"
	"slices"

	"vinfra/internal/cha"
	"vinfra/internal/sim"
	"vinfra/internal/wire"
)

// EmulatorSnapshot captures one emulator's complete mutable state: region
// membership, the contention manager's blob, the agreement core and state
// floor when joined, and the per-virtual-round scratch — so a checkpoint
// may be taken at any engine round, not just a virtual-round boundary. The
// deployment, program and hooks are code, rebuilt by the driver.
type EmulatorSnapshot struct {
	VN     VNodeID // None when outside every region
	Joined bool
	// Mgr is the contention manager's sim.Snapshotter blob; empty when
	// outside a region or when the manager carries no state.
	Mgr []byte
	// Core, BrokenChains, Floor and FloorState are meaningful only when
	// Joined (zero values otherwise). BrokenChains rides here because the
	// CoreSnapshot join-ack encoding is frozen and does not carry it.
	Core         cha.CoreSnapshot
	BrokenChains int
	Floor        cha.Instance
	FloorState   []byte
	// Per-virtual-round scratch (see Emulator.startVRound).
	InMsgs          [][]byte
	InCollision     bool
	InVNBroadcast   bool
	Began           bool
	HasExpected     bool // expectedPayload non-nil (nil vs empty is load-bearing)
	Expected        []byte
	BroadcastBallot bool
	SawJoinActivity bool
	Requested       bool
	GotAck          bool
}

// AppendTo appends the canonical encoding of s to dst.
func (s EmulatorSnapshot) AppendTo(dst []byte) []byte {
	dst = wire.AppendVarint(dst, int64(s.VN))
	dst = wire.AppendBool(dst, s.Joined)
	dst = wire.AppendBytes(dst, s.Mgr)
	dst = s.Core.AppendTo(dst)
	dst = wire.AppendUvarint(dst, uint64(s.BrokenChains))
	dst = wire.AppendUvarint(dst, uint64(s.Floor))
	dst = wire.AppendBytes(dst, s.FloorState)
	dst = wire.AppendUvarint(dst, uint64(len(s.InMsgs)))
	for _, m := range s.InMsgs {
		dst = wire.AppendBytes(dst, m)
	}
	dst = wire.AppendBool(dst, s.InCollision)
	dst = wire.AppendBool(dst, s.InVNBroadcast)
	dst = wire.AppendBool(dst, s.Began)
	dst = wire.AppendBool(dst, s.HasExpected)
	dst = wire.AppendBytes(dst, s.Expected)
	dst = wire.AppendBool(dst, s.BroadcastBallot)
	dst = wire.AppendBool(dst, s.SawJoinActivity)
	dst = wire.AppendBool(dst, s.Requested)
	return wire.AppendBool(dst, s.GotAck)
}

// WireSize returns the exact encoded size of s.
func (s EmulatorSnapshot) WireSize() int {
	n := wire.VarintSize(int64(s.VN)) + 1 +
		wire.BytesSize(len(s.Mgr)) +
		s.Core.WireSize() +
		wire.UvarintSize(uint64(s.BrokenChains)) +
		wire.UvarintSize(uint64(s.Floor)) +
		wire.BytesSize(len(s.FloorState)) +
		wire.UvarintSize(uint64(len(s.InMsgs)))
	for _, m := range s.InMsgs {
		n += wire.BytesSize(len(m))
	}
	return n + 1 + 1 + 1 + 1 + wire.BytesSize(len(s.Expected)) + 1 + 1 + 1 + 1
}

// DecodeEmulatorSnapshot decodes one EmulatorSnapshot from d.
func DecodeEmulatorSnapshot(d *wire.Decoder) (EmulatorSnapshot, error) {
	var s EmulatorSnapshot
	s.VN = VNodeID(d.Varint())
	s.Joined = d.Bool()
	s.Mgr = append([]byte(nil), d.Bytes()...)
	core, err := cha.DecodeCoreSnapshot(d)
	if err != nil {
		return EmulatorSnapshot{}, err
	}
	s.Core = core
	s.BrokenChains = int(d.Uvarint())
	s.Floor = cha.Instance(d.Uvarint())
	s.FloorState = append([]byte(nil), d.Bytes()...)
	nm := d.Uvarint()
	if nm > uint64(d.Rem()) {
		return EmulatorSnapshot{}, wire.ErrMalformed
	}
	s.InMsgs = make([][]byte, 0, nm)
	for i := uint64(0); i < nm; i++ {
		s.InMsgs = append(s.InMsgs, append([]byte(nil), d.Bytes()...))
	}
	s.InCollision = d.Bool()
	s.InVNBroadcast = d.Bool()
	s.Began = d.Bool()
	s.HasExpected = d.Bool()
	s.Expected = append([]byte(nil), d.Bytes()...)
	s.BroadcastBallot = d.Bool()
	s.SawJoinActivity = d.Bool()
	s.Requested = d.Bool()
	s.GotAck = d.Bool()
	if err := d.Err(); err != nil {
		return EmulatorSnapshot{}, err
	}
	return s, nil
}

// Snapshot captures the emulator's mutable state; see EmulatorSnapshot.
func (e *Emulator) Snapshot() EmulatorSnapshot {
	s := EmulatorSnapshot{
		VN:              e.vn,
		Joined:          e.joined,
		InCollision:     e.input.Collision,
		InVNBroadcast:   e.input.VNBroadcast,
		Began:           e.began,
		HasExpected:     e.expectedPayload != nil,
		Expected:        append([]byte(nil), e.expectedPayload...),
		BroadcastBallot: e.broadcastBallot,
		SawJoinActivity: e.sawJoinActivity,
		Requested:       e.requested,
		GotAck:          e.gotAck,
	}
	if sn, ok := e.mgr.(sim.Snapshotter); ok {
		s.Mgr = sn.AppendState(nil)
	}
	if e.joined {
		s.Core = e.core.Snapshot()
		s.BrokenChains = e.core.BrokenChains
		s.Floor = e.cache.floor
		s.FloorState = append([]byte(nil), e.cache.floorState...)
	}
	if len(e.input.Msgs) > 0 {
		s.InMsgs = make([][]byte, 0, len(e.input.Msgs))
		for _, m := range e.input.Msgs {
			s.InMsgs = append(s.InMsgs, append([]byte(nil), m...))
		}
	}
	return s
}

// Restore lays snapshot s over the emulator. The region's contention
// manager is rebuilt through the deployment's factory and then handed its
// blob, so a custom NewCM that carries state must implement
// sim.Snapshotter. Restore replaces all mutable state; the emulator then
// behaves exactly as the snapshotted one would.
func (e *Emulator) Restore(s EmulatorSnapshot) error {
	// The region comes from the snapshot, not from where the device stands:
	// the next virtual round must look it up again.
	e.atOK = false
	switch {
	case s.VN == None:
		e.leaveRegion()
	case int(s.VN) >= e.d.NumVNodes():
		return fmt.Errorf("vi: restore: snapshot vnode %d out of range (deployment has %d)", s.VN, e.d.NumVNodes())
	default:
		e.enterRegion(s.VN)
		if len(s.Mgr) > 0 {
			sn, ok := e.mgr.(sim.Snapshotter)
			if !ok {
				return fmt.Errorf("vi: restore: snapshot carries contention manager state but %T is not a sim.Snapshotter", e.mgr)
			}
			if err := sn.RestoreState(s.Mgr); err != nil {
				return fmt.Errorf("vi: restore: contention manager: %w", err)
			}
		}
		if s.Joined {
			core, err := cha.RestoreCore(s.Core)
			if err != nil {
				return fmt.Errorf("vi: restore: %w", err)
			}
			core.BrokenChains = s.BrokenChains
			e.becomeReplica(s.Floor, append([]byte(nil), s.FloorState...), core)
		}
	}
	e.input.Msgs = e.input.Msgs[:0]
	for _, m := range s.InMsgs {
		e.input.Msgs = append(e.input.Msgs, append([]byte(nil), m...))
	}
	e.input.Collision = s.InCollision
	e.input.VNBroadcast = s.InVNBroadcast
	e.began = s.Began
	if s.HasExpected {
		e.expectedPayload = append([]byte{}, s.Expected...)
	} else {
		e.expectedPayload = nil
	}
	e.broadcastBallot = s.BroadcastBallot
	e.sawJoinActivity = s.SawJoinActivity
	e.requested = s.Requested
	e.gotAck = s.GotAck
	return nil
}

// AppendState implements sim.Snapshotter by wrapping the wire trio, so the
// engine folds emulators into EngineSnapshot blobs automatically.
func (e *Emulator) AppendState(dst []byte) []byte {
	return e.Snapshot().AppendTo(dst)
}

// RestoreState implements sim.Snapshotter.
func (e *Emulator) RestoreState(data []byte) error {
	d := wire.Dec(data)
	s, err := DecodeEmulatorSnapshot(&d)
	if err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return err
	}
	return e.Restore(s)
}

// ClientSnapshot captures one client's mutable state: the pending
// reception accumulated for the next Step, the own-broadcast loopback
// guard, and the client program's sim.Snapshotter blob (empty for
// stateless programs).
type ClientSnapshot struct {
	SentPayload []byte
	SentThis    bool
	Recv        [][]byte
	Collision   bool
	Prog        []byte
}

// AppendTo appends the canonical encoding of s to dst.
func (s ClientSnapshot) AppendTo(dst []byte) []byte {
	dst = wire.AppendBytes(dst, s.SentPayload)
	dst = wire.AppendBool(dst, s.SentThis)
	dst = wire.AppendUvarint(dst, uint64(len(s.Recv)))
	for _, m := range s.Recv {
		dst = wire.AppendBytes(dst, m)
	}
	dst = wire.AppendBool(dst, s.Collision)
	return wire.AppendBytes(dst, s.Prog)
}

// WireSize returns the exact encoded size of s.
func (s ClientSnapshot) WireSize() int {
	n := wire.BytesSize(len(s.SentPayload)) + 1 + wire.UvarintSize(uint64(len(s.Recv)))
	for _, m := range s.Recv {
		n += wire.BytesSize(len(m))
	}
	return n + 1 + wire.BytesSize(len(s.Prog))
}

// DecodeClientSnapshot decodes one ClientSnapshot from d.
func DecodeClientSnapshot(d *wire.Decoder) (ClientSnapshot, error) {
	var s ClientSnapshot
	s.SentPayload = append([]byte(nil), d.Bytes()...)
	s.SentThis = d.Bool()
	nr := d.Uvarint()
	if nr > uint64(d.Rem()) {
		return ClientSnapshot{}, wire.ErrMalformed
	}
	s.Recv = make([][]byte, 0, nr)
	for i := uint64(0); i < nr; i++ {
		s.Recv = append(s.Recv, append([]byte(nil), d.Bytes()...))
	}
	s.Collision = d.Bool()
	s.Prog = append([]byte(nil), d.Bytes()...)
	if err := d.Err(); err != nil {
		return ClientSnapshot{}, err
	}
	return s, nil
}

// Snapshot captures the client's mutable state; see ClientSnapshot.
func (c *Client) Snapshot() ClientSnapshot {
	s := ClientSnapshot{
		SentPayload: append([]byte(nil), c.sentPayload...),
		SentThis:    c.sentThis,
		Collision:   c.collision,
	}
	if len(c.recv) > 0 {
		s.Recv = make([][]byte, 0, len(c.recv))
		for _, m := range c.recv {
			s.Recv = append(s.Recv, append([]byte(nil), m.Payload...))
		}
	}
	if sn, ok := c.prog.(sim.Snapshotter); ok {
		s.Prog = sn.AppendState(nil)
	}
	return s
}

// Restore lays snapshot s over the client. A non-empty program blob
// requires the program to implement sim.Snapshotter.
func (c *Client) Restore(s ClientSnapshot) error {
	if len(s.Prog) > 0 {
		sn, ok := c.prog.(sim.Snapshotter)
		if !ok {
			return fmt.Errorf("vi: restore: snapshot carries client program state but %T is not a sim.Snapshotter", c.prog)
		}
		if err := sn.RestoreState(s.Prog); err != nil {
			return fmt.Errorf("vi: restore: client program: %w", err)
		}
	}
	c.sentPayload = append([]byte(nil), s.SentPayload...)
	c.sentThis = s.SentThis
	c.recv = nil
	for _, m := range s.Recv {
		c.recv = append(c.recv, Message{Payload: append([]byte(nil), m...)})
	}
	c.collision = s.Collision
	return nil
}

// AppendState implements sim.Snapshotter.
func (c *Client) AppendState(dst []byte) []byte {
	return c.Snapshot().AppendTo(dst)
}

// RestoreState implements sim.Snapshotter.
func (c *Client) RestoreState(data []byte) error {
	d := wire.Dec(data)
	s, err := DecodeClientSnapshot(&d)
	if err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return err
	}
	return c.Restore(s)
}

// MonitorSnapshot captures the monitor's availability accounting in
// canonical form: virtual nodes sorted ascending, each with its top
// observed instance and its sorted green-instance set.
type MonitorSnapshot struct {
	VNodes []VNodeID
	Tops   []cha.Instance
	Greens [][]cha.Instance
}

// AppendTo appends the canonical encoding of s to dst.
func (s MonitorSnapshot) AppendTo(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(s.VNodes)))
	for i, v := range s.VNodes {
		dst = wire.AppendVarint(dst, int64(v))
		dst = wire.AppendUvarint(dst, uint64(s.Tops[i]))
		g := s.Greens[i]
		dst = wire.AppendUvarint(dst, uint64(len(g)))
		for _, k := range g {
			dst = wire.AppendUvarint(dst, uint64(k))
		}
	}
	return dst
}

// WireSize returns the exact encoded size of s.
func (s MonitorSnapshot) WireSize() int {
	n := wire.UvarintSize(uint64(len(s.VNodes)))
	for i, v := range s.VNodes {
		n += wire.VarintSize(int64(v)) + wire.UvarintSize(uint64(s.Tops[i]))
		g := s.Greens[i]
		n += wire.UvarintSize(uint64(len(g)))
		for _, k := range g {
			n += wire.UvarintSize(uint64(k))
		}
	}
	return n
}

// DecodeMonitorSnapshot decodes a MonitorSnapshot from b, which must
// contain exactly one encoding.
func DecodeMonitorSnapshot(b []byte) (MonitorSnapshot, error) {
	d := wire.Dec(b)
	var s MonitorSnapshot
	nv := d.Uvarint()
	if nv > uint64(d.Rem()) {
		return MonitorSnapshot{}, wire.ErrMalformed
	}
	s.VNodes = make([]VNodeID, 0, nv)
	s.Tops = make([]cha.Instance, 0, nv)
	s.Greens = make([][]cha.Instance, 0, nv)
	for i := uint64(0); i < nv; i++ {
		s.VNodes = append(s.VNodes, VNodeID(d.Varint()))
		s.Tops = append(s.Tops, cha.Instance(d.Uvarint()))
		ng := d.Uvarint()
		if ng > uint64(d.Rem()) {
			return MonitorSnapshot{}, wire.ErrMalformed
		}
		g := make([]cha.Instance, 0, ng)
		for j := uint64(0); j < ng; j++ {
			g = append(g, cha.Instance(d.Uvarint()))
		}
		s.Greens = append(s.Greens, g)
	}
	if err := d.Finish(); err != nil {
		return MonitorSnapshot{}, err
	}
	return s, nil
}

// Snapshot captures the monitor's accounting: the virtual nodes that were
// observed at all, ascending, each run expanded into the instances it
// covers — so two snapshots of the same accounting are byte-identical.
func (m *Monitor) Snapshot() MonitorSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	var s MonitorSnapshot
	s.VNodes = make([]VNodeID, 0, len(m.vnodes))
	for v, g := range m.vnodes {
		if g.top != 0 || len(g.runs) > 0 {
			s.VNodes = append(s.VNodes, v)
		}
	}
	slices.Sort(s.VNodes)
	s.Tops = make([]cha.Instance, len(s.VNodes))
	s.Greens = make([][]cha.Instance, len(s.VNodes))
	for i, v := range s.VNodes {
		g := m.vnodes[v]
		s.Tops[i] = g.top
		n := 0
		for _, r := range g.runs {
			n += int(r.to - r.from + 1)
		}
		greens := make([]cha.Instance, 0, n)
		for _, r := range g.runs {
			for k := r.from; k <= r.to; k++ {
				greens = append(greens, k)
			}
		}
		s.Greens[i] = greens
	}
	return s
}

// Restore replaces the monitor's accounting in place — in place because
// experiment beds wire m.Observe (a method value) into emulator hooks, so
// the monitor pointer itself cannot be swapped on restore. The listed
// instances are folded back into runs one by one, in whatever order and
// with whatever repeats a decoded snapshot lists them.
func (m *Monitor) Restore(s MonitorSnapshot) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.vnodes = make(map[VNodeID]*greenRuns, len(s.VNodes))
	for i, v := range s.VNodes {
		g := &greenRuns{top: s.Tops[i]}
		for _, k := range s.Greens[i] {
			g.add(k)
		}
		m.vnodes[v] = g
	}
}
