package apps

import (
	"sort"

	"vinfra/internal/geo"
	"vinfra/internal/vi"
	"vinfra/internal/wire"
)

// The tracking service (paper reference [36]: "a virtual node-based
// tracking algorithm for mobile networks"): mobile targets broadcast
// heartbeat beacons; the local virtual node records the last sighting per
// target and, when scheduled, broadcasts a digest of recent sightings.
// Neighboring virtual nodes hear these digests on the virtual channel and
// merge them, so sightings propagate across the infrastructure without any
// physical infrastructure.

// Sighting is the last known position of a tracked target.
type Sighting struct {
	Name   string
	X, Y   float64
	VRound int // virtual round of the observation
}

func appendSighting(dst []byte, sg Sighting) []byte {
	dst = wire.AppendString(dst, sg.Name)
	dst = wire.AppendFloat64(dst, sg.X)
	dst = wire.AppendFloat64(dst, sg.Y)
	return wire.AppendUvarint(dst, uint64(sg.VRound))
}

func decodeSighting(d *wire.Decoder) (Sighting, error) {
	var sg Sighting
	sg.Name = d.String()
	sg.X = d.Float64()
	sg.Y = d.Float64()
	sg.VRound = int(d.Uvarint())
	return sg, d.Err()
}

// TrackerState is the tracker virtual node state: sightings sorted by name
// (the canonical order of the state encoding).
type TrackerState struct {
	Sightings []Sighting
}

func encodeTrackerState(dst []byte, s TrackerState) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(s.Sightings)))
	for _, sg := range s.Sightings {
		dst = appendSighting(dst, sg)
	}
	return dst
}

func decodeTrackerState(d *wire.Decoder) (TrackerState, error) {
	var s TrackerState
	n := d.Count()
	for i := 0; i < n; i++ {
		sg, err := decodeSighting(d)
		if err != nil {
			return TrackerState{}, err
		}
		s.Sightings = append(s.Sightings, sg)
	}
	return s, d.Err()
}

func (s *TrackerState) upsert(sg Sighting) {
	i := sort.Search(len(s.Sightings), func(i int) bool {
		return s.Sightings[i].Name >= sg.Name
	})
	if i < len(s.Sightings) && s.Sightings[i].Name == sg.Name {
		if s.Sightings[i].VRound <= sg.VRound {
			s.Sightings[i] = sg
		}
		return
	}
	s.Sightings = append(s.Sightings, Sighting{})
	copy(s.Sightings[i+1:], s.Sightings[i:])
	s.Sightings[i] = sg
}

// Lookup returns the sighting for name, if known.
func (s *TrackerState) Lookup(name string) (Sighting, bool) {
	i := sort.Search(len(s.Sightings), func(i int) bool {
		return s.Sightings[i].Name >= name
	})
	if i < len(s.Sightings) && s.Sightings[i].Name == name {
		return s.Sightings[i], true
	}
	return Sighting{}, false
}

// Beacon builds a heartbeat message for a target at position p.
func Beacon(name string, p geo.Point) *vi.Message {
	b := []byte{tagBeacon}
	b = wire.AppendString(b, name)
	b = wire.AppendFloat64(b, p.X)
	b = wire.AppendFloat64(b, p.Y)
	return &vi.Message{Payload: b}
}

func parseBeacon(payload []byte, vround int) (Sighting, bool) {
	d, ok := payloadBody(payload, tagBeacon)
	if !ok {
		return Sighting{}, false
	}
	name := d.String()
	x := d.Float64()
	y := d.Float64()
	if d.Finish() != nil || name == "" {
		return Sighting{}, false
	}
	return Sighting{Name: name, X: x, Y: y, VRound: vround}, true
}

// encodeDigest renders the most recent sightings (up to max) as a digest
// broadcast.
func encodeDigest(s TrackerState, max int) []byte {
	recent := append([]Sighting(nil), s.Sightings...)
	sort.Slice(recent, func(i, j int) bool {
		if recent[i].VRound != recent[j].VRound {
			return recent[i].VRound > recent[j].VRound
		}
		return recent[i].Name < recent[j].Name
	})
	if len(recent) > max {
		recent = recent[:max]
	}
	b := []byte{tagDigest}
	b = wire.AppendUvarint(b, uint64(len(recent)))
	for _, sg := range recent {
		b = appendSighting(b, sg)
	}
	return b
}

// ParseDigest decodes a tracker digest broadcast into sightings.
func ParseDigest(payload []byte) ([]Sighting, bool) {
	d, ok := payloadBody(payload, tagDigest)
	if !ok {
		return nil, false
	}
	n := d.Count()
	var out []Sighting
	for i := 0; i < n; i++ {
		sg, err := decodeSighting(&d)
		if err != nil {
			return nil, false
		}
		out = append(out, sg)
	}
	if d.Finish() != nil {
		return nil, false
	}
	return out, true
}

// digestSize bounds the number of sightings per digest broadcast, keeping
// virtual messages small.
const digestSize = 4

// TrackerProgram returns virtual node v's tracking program, a
// vi.DeploymentConfig.Program.
func TrackerProgram(v vi.VNodeID, sched vi.Schedule) vi.Program {
	return vi.Codec[TrackerState]{
		InitState: func(vi.VNodeID, geo.Point) TrackerState {
			return TrackerState{}
		},
		Step: func(s TrackerState, vround int, in vi.RoundInput) TrackerState {
			for _, m := range in.Msgs {
				if sg, ok := parseBeacon(m, vround); ok {
					s.upsert(sg)
					continue
				}
				if sgs, ok := ParseDigest(m); ok {
					// Merge a neighboring virtual node's digest.
					for _, sg := range sgs {
						s.upsert(sg)
					}
				}
			}
			return s
		},
		Out: func(s TrackerState, vround int) *vi.Message {
			if !sched.ScheduledIn(v, vround-1) || len(s.Sightings) == 0 {
				return nil
			}
			return &vi.Message{Payload: encodeDigest(s, digestSize)}
		},
		EncodeState: encodeTrackerState,
		DecodeState: decodeTrackerState,
	}
}

// TargetClient is a client program that beacons its (externally updated)
// position every Period virtual rounds. Beacon rounds are staggered by a
// name-derived offset so that co-located targets do not collide on the
// virtual channel every time.
type TargetClient struct {
	Name   string
	Period int
	// Pos is read at each beacon; update it from the mobility model (or a
	// closure over sim.Env.Location).
	Pos func() geo.Point
}

// Step implements vi.ClientProgram.
func (c *TargetClient) Step(vround int, recv []vi.Message, collision bool) *vi.Message {
	period := c.Period
	if period <= 0 {
		period = 1
	}
	offset := 0
	for _, b := range []byte(c.Name) {
		offset = (offset*31 + int(b)) % period
	}
	if vround%period != offset {
		return nil
	}
	return Beacon(c.Name, c.Pos())
}

// ObserverClient listens for digests and accumulates the freshest sighting
// per target.
type ObserverClient struct {
	state TrackerState
}

// Step implements vi.ClientProgram.
func (c *ObserverClient) Step(vround int, recv []vi.Message, collision bool) *vi.Message {
	for _, m := range recv {
		if sgs, ok := ParseDigest(m.Payload); ok {
			for _, sg := range sgs {
				c.state.upsert(sg)
			}
		}
	}
	return nil
}

// Lookup returns the observer's freshest sighting for name.
func (c *ObserverClient) Lookup(name string) (Sighting, bool) {
	return c.state.Lookup(name)
}

// AppendState implements sim.Snapshotter: the accumulated sightings are
// the observer's only mutable state, serialized with the same canonical
// encoding the tracker program uses for its virtual-node state.
func (c *ObserverClient) AppendState(dst []byte) []byte {
	return encodeTrackerState(dst, c.state)
}

// RestoreState implements sim.Snapshotter.
func (c *ObserverClient) RestoreState(data []byte) error {
	d := wire.Dec(data)
	s, err := decodeTrackerState(&d)
	if err != nil {
		return err
	}
	if err := d.Finish(); err != nil {
		return err
	}
	c.state = s
	return nil
}
