package vi

import (
	"fmt"

	"vinfra/internal/cha"
	"vinfra/internal/sim"
	"vinfra/internal/wire"
)

// AppendState implements sim.Snapshotter. It writes the emulator's
// complete mutable state — its region, the contention manager's blob, the
// agreement core and state floor when joined, and the per-virtual-round
// scratch — so a checkpoint may be taken at any engine round, not just a
// virtual-round boundary. The deployment, program and hooks are code,
// rebuilt by the driver.
func (e *Emulator) AppendState(dst []byte) []byte {
	dst = wire.AppendVarint(dst, int64(e.vn))
	dst = wire.AppendBool(dst, e.joined)
	dst = appendBlob(dst, e.seat.CM)
	// The replica fields are zero until the emulator joins. BrokenChains
	// rides here because the CoreSnapshot join-ack encoding is frozen and
	// does not carry it.
	var (
		core       cha.CoreSnapshot
		broken     int
		floor      cha.Instance
		floorState []byte
	)
	if e.joined {
		core, broken, floor, floorState = e.seat.Core.Snapshot(), e.seat.Core.BrokenChains, e.cache.floor, e.cache.floorState
	}
	dst = core.AppendTo(dst)
	dst = wire.AppendUvarint(dst, uint64(broken))
	dst = wire.AppendUvarint(dst, uint64(floor))
	dst = wire.AppendBytes(dst, floorState)
	dst = wire.AppendUvarint(dst, uint64(len(e.input.Msgs)))
	for _, m := range e.input.Msgs {
		dst = wire.AppendBytes(dst, m)
	}
	dst = wire.AppendBool(dst, e.input.Collision)
	dst = wire.AppendBool(dst, e.input.VNBroadcast)
	dst = wire.AppendBool(dst, e.began)
	// nil and empty expected payloads differ: nil means no broadcast.
	dst = wire.AppendBool(dst, e.expectedPayload != nil)
	dst = wire.AppendBytes(dst, e.expectedPayload)
	dst = wire.AppendBool(dst, e.broadcast)
	dst = wire.AppendBool(dst, e.sawJoinActivity)
	dst = wire.AppendBool(dst, e.requested)
	return wire.AppendBool(dst, e.gotAck)
}

// RestoreState implements sim.Snapshotter. It reads and checks the whole
// blob — a vnode of the deployment, state only where AppendState writes
// some, a core snapshot cha.RestoreCore takes, a contention manager blob the
// region's manager takes — before it changes the emulator, so a refused blob
// leaves the emulator as it was. The state lands in the emulator's own
// storage where it has some, so a restored world keeps using what its
// replicas were carved from: the core snapshot in the emulator's core, and
// the manager blob in its manager when the blob names the region the
// emulator is in (otherwise in one the deployment builds afresh). A
// manager refuses a blob without changing.
func (e *Emulator) RestoreState(data []byte) error {
	d := wire.Dec(data)
	vn := VNodeID(d.Varint())
	joined := d.Bool()
	mgrBlob := d.Bytes()
	snap, err := cha.DecodeCoreSnapshot(&d)
	if err != nil {
		return err
	}
	broken := int(d.Uvarint())
	floor := cha.Instance(d.Uvarint())
	floorState := d.Bytes()
	msgs := make([][]byte, d.Count())
	for i := range msgs {
		msgs[i] = d.Bytes()
	}
	collision, vnBroadcast, began, hasExpected := d.Bool(), d.Bool(), d.Bool(), d.Bool()
	expected := d.Bytes()
	broadcast, sawJoinActivity, requested, gotAck := d.Bool(), d.Bool(), d.Bool(), d.Bool()
	if err := d.Finish(); err != nil {
		return err
	}
	switch {
	case vn < None || int(vn) >= e.d.NumVNodes():
		return fmt.Errorf("vi: restore: vnode %d out of range (deployment has %d)", vn, e.d.NumVNodes())
	case vn == None && (joined || len(mgrBlob) > 0):
		return fmt.Errorf("vi: restore: region state on an emulator outside every region")
	case !joined && (snap.Floor != 0 || snap.K != 0 || snap.Prev != 0 || len(snap.BallotKeys) > 0 ||
		len(snap.StatusKeys) > 0 || broken != 0 || floor != 0 || len(floorState) > 0):
		return fmt.Errorf("vi: restore: replica state on an emulator that has not joined")
	case !hasExpected && len(expected) > 0:
		return fmt.Errorf("vi: restore: expected payload without a broadcast")
	}
	if joined {
		if err := snap.Check(); err != nil {
			return fmt.Errorf("vi: restore: %w", err)
		}
	}
	// The manager's blob is the last thing that may refuse.
	mgr := e.seat.CM
	if vn != None {
		if vn != e.vn || mgr == nil {
			mgr = e.d.newCM(vn, e.env, false)
		}
		if err := restoreBlob(mgr, mgrBlob, "contention manager"); err != nil {
			return err
		}
	}
	core := e.seat.Core
	if joined {
		if core == nil {
			core = new(cha.Core)
		}
		if err := core.Restore(snap); err != nil {
			panic(fmt.Sprintf("vi: restore: a checked core snapshot does not restore: %v", err))
		}
		core.BrokenChains = broken
	}

	// The region comes from the blob, not from where the device stands:
	// the next virtual round must look it up again.
	e.atOK = false
	if vn == None {
		e.leaveRegion()
	} else {
		e.enterRegion(vn, mgr)
		if joined {
			e.becomeReplica(floor, append([]byte(nil), floorState...), core)
		}
	}
	e.input.Msgs = e.input.Msgs[:0]
	for _, m := range msgs {
		e.input.Msgs = append(e.input.Msgs, append([]byte(nil), m...))
	}
	e.input.Collision = collision
	e.input.VNBroadcast = vnBroadcast
	e.began = began
	e.expectedPayload = nil
	if hasExpected {
		e.expectedPayload = append([]byte{}, expected...)
	}
	e.broadcast = broadcast
	e.sawJoinActivity = sawJoinActivity
	e.requested = requested
	e.gotAck = gotAck
	return nil
}

// AppendState implements sim.Snapshotter: the pending reception gathered
// for the next Step, the own-broadcast loopback guard, and the client
// program's blob (empty for stateless programs).
func (c *Client) AppendState(dst []byte) []byte {
	dst = wire.AppendBytes(dst, c.sent.Payload)
	dst = wire.AppendBool(dst, c.sentThis)
	dst = wire.AppendUvarint(dst, uint64(len(c.recv)))
	for _, m := range c.recv {
		dst = wire.AppendBytes(dst, m.Payload)
	}
	dst = wire.AppendBool(dst, c.collision)
	return appendBlob(dst, c.prog)
}

// RestoreState implements sim.Snapshotter. A non-empty program blob
// requires the program to implement sim.Snapshotter.
func (c *Client) RestoreState(data []byte) error {
	d := wire.Dec(data)
	sentPayload := d.Bytes()
	sentThis := d.Bool()
	var recv []Message
	for i, n := 0, d.Count(); i < n; i++ {
		recv = append(recv, Message{Payload: append([]byte(nil), d.Bytes()...)})
	}
	collision := d.Bool()
	progBlob := d.Bytes()
	if err := d.Finish(); err != nil {
		return err
	}
	if err := restoreBlob(c.prog, progBlob, "client program"); err != nil {
		return err
	}
	c.sent.Payload = append([]byte(nil), sentPayload...)
	c.sentThis = sentThis
	c.recv = recv
	c.collision = collision
	return nil
}

// appendBlob appends part's sim.Snapshotter blob, length-prefixed: empty
// when part carries no state.
func appendBlob(dst []byte, part any) []byte {
	var blob []byte
	if sn, ok := part.(sim.Snapshotter); ok {
		blob = sn.AppendState(nil)
	}
	return wire.AppendBytes(dst, blob)
}

// restoreBlob hands blob to part's sim.Snapshotter; a part that carries no
// state must have written none.
func restoreBlob(part any, blob []byte, what string) error {
	sn, ok := part.(sim.Snapshotter)
	if !ok {
		if len(blob) > 0 {
			return fmt.Errorf("vi: restore: blob carries %s state but %T is not a sim.Snapshotter", what, part)
		}
		return nil
	}
	if err := sn.RestoreState(blob); err != nil {
		return fmt.Errorf("vi: restore: %s: %w", what, err)
	}
	return nil
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
	nv := d.Count()
	s.VNodes = make([]VNodeID, 0, nv)
	s.Tops = make([]cha.Instance, 0, nv)
	s.Greens = make([][]cha.Instance, 0, nv)
	for i := 0; i < nv; i++ {
		v := d.Varint()
		if v < 0 || v >= maxMonitored {
			return MonitorSnapshot{}, fmt.Errorf("vi: monitor snapshot: virtual node %d outside [0, %d)", v, maxMonitored)
		}
		s.VNodes = append(s.VNodes, VNodeID(v))
		s.Tops = append(s.Tops, cha.Instance(d.Uvarint()))
		ng := d.Count()
		g := make([]cha.Instance, 0, ng)
		for j := 0; j < ng; j++ {
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
	for v, g := range m.vnodes {
		if g.top != 0 || len(g.runs) > 0 {
			s.VNodes = append(s.VNodes, VNodeID(v))
		}
	}
	s.Tops = make([]cha.Instance, len(s.VNodes))
	s.Greens = make([][]cha.Instance, len(s.VNodes))
	for i, v := range s.VNodes {
		g := &m.vnodes[v]
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
	m.vnodes = nil
	m.held.Store(nil) // what Observe skipped by was the old accounting's
	for i, v := range s.VNodes {
		g := m.runsOf(v)
		*g = greenRuns{top: s.Tops[i]}
		for _, k := range s.Greens[i] {
			g.add(k)
		}
	}
}
