package apps

import (
	"vinfra/internal/geo"
	"vinfra/internal/vi"
	"vinfra/internal/wire"
)

// The lock service: a virtual node arbitrates a mutual-exclusion lock among
// clients (the coordination role virtual infrastructure plays for robot
// swarms and traffic intersections in [4, 27, 3]). Requests are granted in
// agreed-history order, so mutual exclusion follows directly from the
// emulation's consistency.

// LockState is the lock virtual node state: the current holder ("" when
// free) and the FIFO queue of waiting client names.
type LockState struct {
	Holder string
	Queue  []string
}

func encodeLockState(dst []byte, s LockState) []byte {
	dst = wire.AppendString(dst, s.Holder)
	dst = wire.AppendUvarint(dst, uint64(len(s.Queue)))
	for _, q := range s.Queue {
		dst = wire.AppendString(dst, q)
	}
	return dst
}

func decodeLockState(d *wire.Decoder) (LockState, error) {
	var s LockState
	s.Holder = d.String()
	n := d.Count()
	for i := 0; i < n; i++ {
		s.Queue = append(s.Queue, d.String())
	}
	return s, d.Err()
}

// nameMsg builds a one-byte-tag payload carrying a client name.
func nameMsg(tag byte, name string) *vi.Message {
	return &vi.Message{Payload: append([]byte{tag}, name...)}
}

// parseName extracts the name from a one-byte-tag payload.
func parseName(payload []byte, tag byte) (string, bool) {
	if len(payload) == 0 || payload[0] != tag {
		return "", false
	}
	return string(payload[1:]), true
}

// LockRequest builds an acquire message for the named client.
func LockRequest(client string) *vi.Message {
	return nameMsg(tagLockRequest, client)
}

// LockRelease builds a release message for the named client.
func LockRelease(client string) *vi.Message {
	return nameMsg(tagLockRelease, client)
}

// ParseGrant parses a grant broadcast; it returns the holder name ("" when
// the lock is free).
func ParseGrant(payload []byte) (holder string, ok bool) {
	return parseName(payload, tagLockGrant)
}

func (s *LockState) enqueue(client string) {
	if s.Holder == client {
		return
	}
	for _, q := range s.Queue {
		if q == client {
			return
		}
	}
	s.Queue = append(s.Queue, client)
	s.promote()
}

func (s *LockState) release(client string) {
	if s.Holder == client {
		s.Holder = ""
		s.promote()
		return
	}
	// Cancel a queued request.
	for i, q := range s.Queue {
		if q == client {
			s.Queue = append(s.Queue[:i], s.Queue[i+1:]...)
			return
		}
	}
}

func (s *LockState) promote() {
	if s.Holder == "" && len(s.Queue) > 0 {
		s.Holder = s.Queue[0]
		s.Queue = s.Queue[1:]
	}
}

// LockProgram returns virtual node v's lock program, a
// vi.DeploymentConfig.Program. When scheduled, the virtual node broadcasts
// the current holder so clients learn grants.
func LockProgram(v vi.VNodeID, sched vi.Schedule) vi.Program {
	return vi.Codec[LockState]{
		InitState: func(vi.VNodeID, geo.Point) LockState {
			return LockState{}
		},
		Step: func(s LockState, vround int, in vi.RoundInput) LockState {
			for _, m := range in.Msgs {
				if name, ok := parseName(m, tagLockRequest); ok {
					s.enqueue(name)
				} else if name, ok := parseName(m, tagLockRelease); ok {
					s.release(name)
				}
			}
			return s
		},
		Out: func(s LockState, vround int) *vi.Message {
			if !sched.ScheduledIn(v, vround-1) {
				return nil
			}
			return nameMsg(tagLockGrant, s.Holder)
		},
		EncodeState: encodeLockState,
		DecodeState: decodeLockState,
	}
}

// LockClient is a client program implementing the acquire/hold/release
// cycle: it requests the lock, retries until it hears itself granted,
// holds for HoldRounds virtual rounds, releases, and repeats up to Cycles
// times.
type LockClient struct {
	Name       string
	HoldRounds int
	Cycles     int

	// CriticalRounds records the virtual rounds during which this client
	// believed it held the lock (for the mutual exclusion check).
	CriticalRounds []int

	phase     lockPhase
	heldSince int
	done      int
}

type lockPhase int

const (
	lockIdle lockPhase = iota
	lockWaiting
	lockHolding
	lockDone
)

// Completed returns how many acquire/release cycles have finished.
func (c *LockClient) Completed() int { return c.done }

// slotPeriod staggers client broadcasts: the virtual channel is collision
// prone, so clients that all (re-)request in the same virtual round would
// collide forever. Each client transmits only in its name-derived slot —
// the virtual-channel analogue of randomized backoff.
const slotPeriod = 5

func (c *LockClient) slot() int {
	h := 0
	for _, b := range []byte(c.Name) {
		h = h*31 + int(b)
	}
	if h < 0 {
		h = -h
	}
	return h % slotPeriod
}

func (c *LockClient) mySlot(vround int) bool {
	return vround%slotPeriod == c.slot()
}

// Step implements vi.ClientProgram.
func (c *LockClient) Step(vround int, recv []vi.Message, collision bool) *vi.Message {
	holder, heard := "", false
	for _, m := range recv {
		if h, ok := ParseGrant(m.Payload); ok {
			holder, heard = h, true
		}
	}
	switch c.phase {
	case lockIdle:
		// If the arbiter still names us holder, our release was lost to a
		// collision on the virtual channel: re-release before anything
		// else, or every other client starves.
		if heard && holder == c.Name {
			return LockRelease(c.Name)
		}
		if c.done >= c.Cycles {
			c.phase = lockDone
			return nil
		}
		if !c.mySlot(vround) {
			return nil
		}
		c.phase = lockWaiting
		return LockRequest(c.Name)
	case lockWaiting:
		if heard && holder == c.Name {
			c.phase = lockHolding
			c.heldSince = vround
			c.CriticalRounds = append(c.CriticalRounds, vround)
			return nil
		}
		// Re-request in our slot in case the request was lost to a
		// collision on the virtual channel.
		if c.mySlot(vround) {
			return LockRequest(c.Name)
		}
		return nil
	case lockHolding:
		c.CriticalRounds = append(c.CriticalRounds, vround)
		if vround-c.heldSince >= c.HoldRounds {
			c.phase = lockIdle
			c.done++
			return LockRelease(c.Name)
		}
		return nil
	default: // lockDone
		if heard && holder == c.Name {
			return LockRelease(c.Name)
		}
		return nil
	}
}
