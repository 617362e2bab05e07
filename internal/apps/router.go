package apps

import (
	"vinfra/internal/geo"
	"vinfra/internal/vi"
	"vinfra/internal/wire"
)

// Geographic routing over the virtual infrastructure (paper references
// [12, 16, 17, 40]): a client hands a packet addressed to a location to
// its local virtual node; virtual nodes greedily relay it toward the
// destination over the virtual channel (each VN broadcast reaches the
// neighboring VNs); the virtual node closest to the destination delivers
// the packet to its local clients. Virtual nodes are static, so greedy
// geographic forwarding needs no routing tables and no route discovery —
// exactly the simplification virtual infrastructure buys.

// Packet is a routed message in flight.
type Packet struct {
	ID   string
	Dst  geo.Point
	TTL  int
	Body string
	// Copies is how many more times this node will relay the packet.
	// The virtual channel gives no delivery confirmation (a vn-phase
	// broadcast can be lost to collisions), so each hop relays the packet
	// RelayCopies times; duplicate suppression keeps this loop-free.
	Copies int
}

func appendPacket(dst []byte, p Packet) []byte {
	dst = wire.AppendString(dst, p.ID)
	dst = wire.AppendFloat64(dst, p.Dst.X)
	dst = wire.AppendFloat64(dst, p.Dst.Y)
	dst = wire.AppendVarint(dst, int64(p.TTL))
	dst = wire.AppendString(dst, p.Body)
	return wire.AppendVarint(dst, int64(p.Copies))
}

func decodePacket(d *wire.Decoder) (Packet, error) {
	var p Packet
	p.ID = d.String()
	p.Dst.X = d.Float64()
	p.Dst.Y = d.Float64()
	p.TTL = int(d.Varint())
	p.Body = d.String()
	p.Copies = int(d.Varint())
	return p, d.Err()
}

// RelayCopies is the per-hop relay redundancy.
const RelayCopies = 2

// RouterState is the router virtual node state.
type RouterState struct {
	// Loc is this virtual node's own location (set at Init).
	Loc geo.Point
	// Pending are packets awaiting this node's next scheduled broadcast.
	Pending []Packet
	// Delivered are packets to announce to local clients.
	Delivered []Packet
	// Seen holds recently seen packet IDs for duplicate suppression
	// (bounded FIFO).
	Seen []string
}

func encodeRouterState(dst []byte, s RouterState) []byte {
	dst = wire.AppendFloat64(dst, s.Loc.X)
	dst = wire.AppendFloat64(dst, s.Loc.Y)
	dst = wire.AppendUvarint(dst, uint64(len(s.Pending)))
	for _, p := range s.Pending {
		dst = appendPacket(dst, p)
	}
	dst = wire.AppendUvarint(dst, uint64(len(s.Delivered)))
	for _, p := range s.Delivered {
		dst = appendPacket(dst, p)
	}
	dst = wire.AppendUvarint(dst, uint64(len(s.Seen)))
	for _, id := range s.Seen {
		dst = wire.AppendString(dst, id)
	}
	return dst
}

func decodeRouterState(d *wire.Decoder) (RouterState, error) {
	var s RouterState
	s.Loc.X = d.Float64()
	s.Loc.Y = d.Float64()
	decodePackets := func() ([]Packet, error) {
		n := d.Count()
		var out []Packet
		for i := 0; i < n; i++ {
			p, err := decodePacket(d)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
		return out, d.Err()
	}
	var err error
	if s.Pending, err = decodePackets(); err != nil {
		return RouterState{}, err
	}
	if s.Delivered, err = decodePackets(); err != nil {
		return RouterState{}, err
	}
	n := d.Count()
	for i := 0; i < n; i++ {
		s.Seen = append(s.Seen, d.String())
	}
	return s, d.Err()
}

const routerSeenCap = 32

func (s *RouterState) sawPacket(id string) bool {
	for _, x := range s.Seen {
		if x == id {
			return true
		}
	}
	return false
}

func (s *RouterState) markSeen(id string) {
	s.Seen = append(s.Seen, id)
	if len(s.Seen) > routerSeenCap {
		s.Seen = s.Seen[len(s.Seen)-routerSeenCap:]
	}
}

// RouteSend builds the client message injecting a packet addressed to dst.
func RouteSend(dst geo.Point, id, body string) *vi.Message {
	b := []byte{tagRouteSend}
	b = wire.AppendFloat64(b, dst.X)
	b = wire.AppendFloat64(b, dst.Y)
	b = wire.AppendString(b, id)
	b = wire.AppendString(b, body)
	return &vi.Message{Payload: b}
}

// DeliverMsg builds a delivery broadcast for (id, body) — the payload the
// destination virtual node announces to its local clients. Exposed for
// tests and tools; virtual nodes construct it internally.
func DeliverMsg(id, body string) *vi.Message {
	b := []byte{tagRouteDeliver}
	b = wire.AppendString(b, id)
	b = wire.AppendString(b, body)
	return &vi.Message{Payload: b}
}

// RelayMsg builds a VN-to-VN relay broadcast for packet p sent from a
// virtual node at from. Exposed for tests and tools.
func RelayMsg(from geo.Point, p Packet) *vi.Message {
	return &vi.Message{Payload: encodeRelay(from, p)}
}

// ParseDelivery parses a delivery broadcast into (id, body).
func ParseDelivery(payload []byte) (id, body string, ok bool) {
	d, ok := payloadBody(payload, tagRouteDeliver)
	if !ok {
		return "", "", false
	}
	id = d.String()
	body = d.String()
	if d.Finish() != nil || id == "" {
		return "", "", false
	}
	return id, body, true
}

func parseSend(payload []byte) (Packet, bool) {
	d, ok := payloadBody(payload, tagRouteSend)
	if !ok {
		return Packet{}, false
	}
	var p Packet
	p.Dst.X = d.Float64()
	p.Dst.Y = d.Float64()
	p.ID = d.String()
	p.Body = d.String()
	if d.Finish() != nil || p.ID == "" {
		return Packet{}, false
	}
	p.TTL = 16
	return p, true
}

func encodeRelay(from geo.Point, p Packet) []byte {
	b := []byte{tagRouteRelay}
	b = wire.AppendFloat64(b, from.X)
	b = wire.AppendFloat64(b, from.Y)
	b = wire.AppendFloat64(b, p.Dst.X)
	b = wire.AppendFloat64(b, p.Dst.Y)
	b = wire.AppendString(b, p.ID)
	b = wire.AppendVarint(b, int64(p.TTL))
	b = wire.AppendString(b, p.Body)
	return b
}

func parseRelay(payload []byte) (from geo.Point, p Packet, ok bool) {
	d, ok := payloadBody(payload, tagRouteRelay)
	if !ok {
		return geo.Point{}, Packet{}, false
	}
	from.X = d.Float64()
	from.Y = d.Float64()
	p.Dst.X = d.Float64()
	p.Dst.Y = d.Float64()
	p.ID = d.String()
	p.TTL = int(d.Varint())
	p.Body = d.String()
	if d.Finish() != nil || p.ID == "" {
		return geo.Point{}, Packet{}, false
	}
	return from, p, true
}

// RouterProgram returns the routing virtual node program's factory. locs
// must be the deployment's virtual node locations (used to decide whether
// this node is the packet's final destination).
func RouterProgram(locs []geo.Point) func(vi.VNodeID, vi.Schedule) vi.Program {
	// isClosest reports whether loc is the deployment's closest virtual
	// node to dst.
	isClosest := func(loc geo.Point, dst geo.Point) bool {
		best := loc.Dist2(dst)
		for _, other := range locs {
			if other.Dist2(dst) < best {
				return false
			}
		}
		return true
	}
	return func(v vi.VNodeID, sched vi.Schedule) vi.Program {
		return vi.Codec[RouterState]{
			InitState: func(id vi.VNodeID, loc geo.Point) RouterState {
				return RouterState{Loc: loc}
			},
			Step: func(s RouterState, vround int, in vi.RoundInput) RouterState {
				s = routerRetire(s, in)
				for _, m := range in.Msgs {
					var pkt Packet
					var from geo.Point
					var isRelay bool
					if p, ok := parseSend(m); ok {
						pkt, from, isRelay = p, s.Loc, false
					} else if f, p, ok := parseRelay(m); ok {
						pkt, from, isRelay = p, f, true
					} else {
						continue
					}
					if s.sawPacket(pkt.ID) || pkt.TTL <= 0 {
						continue
					}
					// Greedy rule: a relayed packet is adopted only by
					// nodes strictly closer to the destination than the
					// previous hop (locally injected packets are always
					// adopted).
					if isRelay && s.Loc.Dist2(pkt.Dst) >= from.Dist2(pkt.Dst) {
						continue
					}
					s.markSeen(pkt.ID)
					if isClosest(s.Loc, pkt.Dst) {
						pkt.Copies = RelayCopies
						s.Delivered = append(s.Delivered, pkt)
					} else {
						pkt.TTL--
						pkt.Copies = RelayCopies
						s.Pending = append(s.Pending, pkt)
					}
				}
				return s
			},
			Out: func(s RouterState, vround int) *vi.Message {
				if !sched.ScheduledIn(v, vround-1) {
					return nil
				}
				// Deliveries take priority over relays; one broadcast per
				// scheduled round. (Out must not mutate state — the queue
				// entry is retired by routerRetire on the next Step.)
				if len(s.Delivered) > 0 {
					p := s.Delivered[0]
					b := []byte{tagRouteDeliver}
					b = wire.AppendString(b, p.ID)
					b = wire.AppendString(b, p.Body)
					return &vi.Message{Payload: b}
				}
				if len(s.Pending) > 0 {
					return &vi.Message{Payload: encodeRelay(s.Loc, s.Pending[0])}
				}
				return nil
			},
			EncodeState: encodeRouterState,
			DecodeState: decodeRouterState,
		}
	}
}

// routerRetire accounts for the head-of-queue broadcast that the agreed
// round input confirms (Out is a pure function of the state and cannot
// retire it itself): the head's remaining copy count is decremented, and
// the packet is rotated to the back of the queue (or dropped at zero
// copies) so later packets are not starved. Step runs it before the
// round's messages, since the broadcast preceded this round's agreement.
func routerRetire(s RouterState, in vi.RoundInput) RouterState {
	if !in.VNBroadcast {
		return s
	}
	pop := func(q []Packet) []Packet {
		head := q[0]
		rest := append([]Packet(nil), q[1:]...)
		head.Copies--
		if head.Copies > 0 {
			rest = append(rest, head)
		}
		return rest
	}
	if len(s.Delivered) > 0 {
		s.Delivered = pop(s.Delivered)
		return s
	}
	if len(s.Pending) > 0 {
		s.Pending = pop(s.Pending)
	}
	return s
}

// RouterClient injects packets and collects deliveries.
type RouterClient struct {
	// Sends maps virtual round -> packet to inject in that round.
	Sends map[int]*vi.Message
	// Received collects (id, body) deliveries heard.
	Received []Packet
}

// Step implements vi.ClientProgram.
func (c *RouterClient) Step(vround int, recv []vi.Message, collision bool) *vi.Message {
	for _, m := range recv {
		if id, body, ok := ParseDelivery(m.Payload); ok {
			dup := false
			for _, r := range c.Received {
				if r.ID == id {
					dup = true
					break
				}
			}
			if !dup {
				c.Received = append(c.Received, Packet{ID: id, Body: body})
			}
		}
	}
	if m, ok := c.Sends[vround]; ok {
		return m
	}
	return nil
}
