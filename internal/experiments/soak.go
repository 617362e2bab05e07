package experiments

import (
	"bytes"
	"fmt"
	"sync"

	"vinfra/internal/checkpoint"
	"vinfra/internal/faults"
	"vinfra/internal/geo"
	"vinfra/internal/harness"
	"vinfra/internal/sim"
	"vinfra/internal/spec"
	"vinfra/internal/vi"
	"vinfra/internal/wire"
)

// Soak is a resumable experiment driver: the long-running experiments
// (E11 metro churn, E13 adversary grid, E14 city) are structured as one
// constructor that rebuilds the whole deployment from the cell parameters
// plus a StepVRound loop, so a run can be suspended into a
// checkpoint.Checkpoint at any virtual-round boundary and resumed — in the
// same process or a fresh one — with byte-identical results to an
// uninterrupted run. The descriptor Run functions are thin wrappers that
// step a Soak to completion, so the soak path and the golden path are the
// same code.
//
// The restore protocol: build the Soak from the same cell (same params,
// same seed, same shard count) — that reconstructs every piece of code the
// snapshot cannot carry (programs, factories, fault closures) — then call
// Restore with the checkpoint, which re-attaches mid-run joiners, lays the
// engine/monitor state over the rebuilt world, and repositions the
// driver's own counters.
type Soak interface {
	// VRounds returns the cell's total virtual-round horizon.
	VRounds() int
	// VRound returns the next virtual round to execute (0-based; equal to
	// VRounds when the run is complete).
	VRound() int
	// StepVRound executes one virtual round, including the driver's
	// between-round work (churn, revives).
	StepVRound()
	// Columns names the fields of a Rows row (chabench -soak prints them
	// as the output header; E14's soak row differs from its descriptor's
	// two-run comparison columns).
	Columns() []string
	// Rows returns the cell's result rows and folds the engine's round and
	// byte counts into the cell (call once, after the final StepVRound).
	Rows() []harness.Row
	// Checkpoint captures the full run state at the current virtual-round
	// boundary.
	Checkpoint() checkpoint.Checkpoint
	// Restore lays a checkpoint over a freshly constructed Soak.
	Restore(cp checkpoint.Checkpoint) error
}

// NewSoak builds the resumable driver for one cell of a soakable
// experiment. exp selects the experiment ("E11", "E13", "E14"); shards > 0
// runs the region-sharded engine (E14 interprets shards <= 0 as its
// headline 8-shard configuration, the others as the single-medium world).
func NewSoak(exp string, c *harness.Cell, shards int) (Soak, error) {
	shards = max(shards, 0)
	switch exp {
	case "E11":
		return newMetroSoak(c, shards), nil
	case "E13":
		return newAdversarySoak(c, true, shards), nil
	case "E14":
		if shards == 0 {
			shards = 8
		}
		return newCitySoak(c, shards), nil
	default:
		return nil, fmt.Errorf("experiments: %q is not soakable (want E11, E13 or E14)", exp)
	}
}

// soakCheckpoint captures the world's three shared layers with the soak's
// own driver blob in place of the world's (a soak keeps its own cursor and
// counts only its mid-run joiners, so the world's driver state is unused).
func soakCheckpoint(w *spec.World, driver []byte) checkpoint.Checkpoint {
	cp := w.Checkpoint()
	cp.Driver = driver
	return cp
}

// soakRestore lays the three shared layers over a rebuilt world. The driver
// must have re-attached every mid-run joiner first so the node population
// matches.
func soakRestore(w *spec.World, cp checkpoint.Checkpoint) error {
	if !bytes.Equal(cp.Medium, w.Medium.AppendFingerprint(nil)) {
		return fmt.Errorf("the checkpoint's medium fingerprint differs from the rebuilt medium's")
	}
	if err := w.Eng.Restore(cp.Engine); err != nil {
		return err
	}
	w.Mon.Restore(cp.Monitor)
	return nil
}

// soakReplicasPer is the bootstrapped replica count per region in every
// soak.
const soakReplicasPer = 3

// churnSoak is what the churn soaks (E11, E13) share: the cell, its world,
// the virtual-round cursor, and the replica bookkeeping — per-region rosters
// (oldest first, head = the fixed leader), the mid-run joiners in attach
// order, and join/reset counters fed by the joiners' hooks only (the world's
// own counters also see the bootstrapped replicas, whose resets the result
// columns must not count).
type churnSoak struct {
	c       *harness.Cell
	w       *spec.World
	vrounds int
	vr      int

	rosters [][]sim.NodeID
	extras  []int // region of each mid-run joiner, in attach order
	churn   int   // respawns so far; drives the respawn position pattern

	// Hooks fire from emulator Receive calls, which the parallel engine
	// fans out across workers: the counters need their own lock.
	mu     sync.Mutex
	joins  int
	resets int
}

func newChurnSoak(c *harness.Cell, w *spec.World) *churnSoak {
	s := &churnSoak{c: c, w: w, vrounds: c.Params.Int("vrounds"), rosters: make([][]sim.NodeID, len(w.Locs))}
	for v := range s.rosters {
		for i := 0; i < soakReplicasPer; i++ {
			s.rosters[v] = append(s.rosters[v], sim.NodeID(v*soakReplicasPer+i))
		}
	}
	return s
}

func (s *churnSoak) VRounds() int { return s.vrounds }
func (s *churnSoak) VRound() int  { return s.vr }

// World returns the world the soak drives, for observers that need its
// engine between the virtual-round boundaries a Checkpoint is confined to
// (the sleep oracle hooks every radio round).
func (s *churnSoak) World() *spec.World { return s.w }

// respawn attaches a fresh (non-bootstrapped) device near region v, which
// acquires state through the join protocol, and appends it to the region's
// roster. onJoin, when set, runs under the counter lock with the virtual
// round the join completed in. It runs on the engine goroutine only (fault
// Strike or between vrounds).
func (s *churnSoak) respawn(v int, onJoin func(joinVR int)) (sim.NodeID, *vi.Emulator) {
	loc := s.w.Locs[v]
	pos := geo.Point{
		X: loc.X + 0.4*float64(s.churn%4) - 0.6,
		Y: loc.Y - 0.35,
	}
	s.churn++
	id := sim.NodeID(s.w.Eng.NumNodes())
	em := s.w.AttachReplica(pos, false, vi.EmulatorHooks{
		OnJoin: func(_ vi.VNodeID, joinVR int) {
			s.mu.Lock()
			s.joins++
			if onJoin != nil {
				onJoin(joinVR)
			}
			s.mu.Unlock()
		},
		OnReset: func(vi.VNodeID, int) {
			s.mu.Lock()
			s.resets++
			s.mu.Unlock()
		},
	})
	s.rosters[v] = append(s.rosters[v], id)
	s.extras = append(s.extras, v)
	return id, em
}

// setLeader hands region v to node id. Every soak world runs fixed leaders,
// so a failure here is a bug in the soak.
func (s *churnSoak) setLeader(v int, id sim.NodeID) {
	if err := s.w.SetLeader(vi.VNodeID(v), id); err != nil {
		panic(err)
	}
}

// appendDriver encodes the shared resume state: cursor, counters, rosters
// and joiner regions. This is E13's whole driver blob, whose layout
// bench/expect.json freezes; E11 appends its latency bookkeeping after it.
func (s *churnSoak) appendDriver(dst []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(s.vr))
	dst = wire.AppendUvarint(dst, uint64(s.churn))
	dst = wire.AppendUvarint(dst, uint64(s.joins))
	dst = wire.AppendUvarint(dst, uint64(s.resets))
	dst = wire.AppendUvarint(dst, uint64(len(s.rosters)))
	for _, reg := range s.rosters {
		dst = wire.AppendUvarint(dst, uint64(len(reg)))
		for _, id := range reg {
			dst = wire.AppendUvarint(dst, uint64(id))
		}
	}
	dst = wire.AppendUvarint(dst, uint64(len(s.extras)))
	for _, v := range s.extras {
		dst = wire.AppendUvarint(dst, uint64(v))
	}
	return dst
}

// churnState is a decoded appendDriver blob.
type churnState struct {
	vr, churn, joins, resets int
	rosters                  [][]sim.NodeID
	extras                   []int
}

// decodeDriver reads an appendDriver blob. It comes from a checkpoint file,
// so nothing in it is trusted: every count is bounded by the bytes left
// before anything is sized from it, every joiner's region must exist, and
// every roster entry must name a node of the population the restored world
// will have (the nodes attached now plus the joiners to replay).
func (s *churnSoak) decodeDriver(d *wire.Decoder) (churnState, error) {
	st := churnState{
		vr:     int(d.Uvarint()),
		churn:  int(d.Uvarint()),
		joins:  int(d.Uvarint()),
		resets: int(d.Uvarint()),
	}
	nv := len(s.rosters)
	if nr := d.Uvarint(); d.Err() != nil {
		return st, d.Err()
	} else if nr != uint64(nv) {
		return st, fmt.Errorf("%d region rosters, world has %d regions", nr, nv)
	}
	st.rosters = make([][]sim.NodeID, nv)
	for i := range st.rosters {
		n := d.Count()
		for j := 0; j < n; j++ {
			st.rosters[i] = append(st.rosters[i], sim.NodeID(d.Uvarint()))
		}
	}
	nx := d.Count()
	for i := 0; i < nx; i++ {
		v := d.Uvarint()
		if v >= uint64(nv) {
			return st, fmt.Errorf("joiner in region %d, world has %d regions", v, nv)
		}
		st.extras = append(st.extras, int(v))
	}
	population := s.w.Eng.NumNodes() + nx
	for _, reg := range st.rosters {
		for _, id := range reg {
			if id < 0 || int(id) >= population {
				return st, fmt.Errorf("roster names node %d, population is %d", id, population)
			}
		}
	}
	return st, d.Err()
}

// restoreOver finishes a restore once the soak has replayed its mid-run
// joiners (in their original order, so the node population and NodeID
// assignment match the checkpoint): the engine restore overwrites every
// node's position and state, and the checkpointed bookkeeping replaces what
// the replay rebuilt.
func (s *churnSoak) restoreOver(cp checkpoint.Checkpoint, st churnState) error {
	if err := soakRestore(s.w, cp); err != nil {
		return err
	}
	s.vr, s.churn, s.joins, s.resets = st.vr, st.churn, st.joins, st.resets
	s.rosters = st.rosters
	return nil
}

// --- E11: metro churn ---

type metroSoak struct {
	*churnSoak
	// arrived[i] is the virtual round joiner extras[i] arrived in (its
	// OnJoin hook measures join latency against that arrival).
	arrived   []int
	latencies []int64
}

func newMetroSoak(c *harness.Cell, shards int) *metroSoak {
	cols, rows := c.Params.Int("cols"), c.Params.Int("rows")
	return &metroSoak{churnSoak: newChurnSoak(c, buildWorld(spec.Spec{
		Seed: int64(cols*rows) + c.Base(), VRounds: c.Params.Int("vrounds"), Grid: spec.Grid{Cols: cols, Rows: rows},
		Devices: spec.Devices{Replicas: soakReplicasPer, Pingers: true},
		Engine:  spec.Engine{Parallel: true, Shards: shards},
	}))}
}

// attachExtra attaches one mid-run joiner with the latency-measuring hook
// and records its arrival for checkpointing.
func (s *metroSoak) attachExtra(v, arrived int) {
	s.respawn(v, func(joinVR int) {
		s.latencies = append(s.latencies, int64(joinVR-arrived))
	})
	s.arrived = append(s.arrived, arrived)
}

// StepVRound runs one virtual round of the metro churn load: from the
// second round on, the rotation picks a region, its oldest replica departs
// through one of the three departure paths (immediate Leave, a CrashAt
// scheduled mid-vround, a CrashAt aimed at an already-past round),
// leadership hands to the next-oldest replica, and a fresh device attaches
// nearby and acquires state through the join protocol.
func (s *metroSoak) StepVRound() {
	vr, eng := s.vr, s.w.Eng
	if vr > 0 {
		v := vr % len(s.rosters)
		if reg := s.rosters[v]; len(reg) > 1 {
			oldest := reg[0]
			s.rosters[v] = reg[1:]
			// The departing replica is always the region's leader: hand
			// leadership to the next-oldest before it goes, the failover a
			// managed deployment performs.
			s.setLeader(v, s.rosters[v][0])
			switch s.churn % 3 {
			case 0:
				eng.Leave(oldest)
			case 1:
				// Mid-vround crash: the replica dies between phases.
				eng.CrashAt(oldest, eng.Round()+sim.Round(s.w.RoundsPerVRound()/2))
			case 2:
				// A crash scheduled for a round that already ran: the
				// engine applies it immediately instead of dropping it.
				eng.CrashAt(oldest, eng.Round()-1)
			}
			s.attachExtra(v, vr)
		}
	}
	s.w.StepVRound()
	s.vr++
}

// Columns matches the E11 descriptor: the soak row is the cell row.
func (s *metroSoak) Columns() []string { return e11Desc.Columns }

func (s *metroSoak) Rows() []harness.Row {
	eng, nv := s.w.Eng, len(s.w.Locs)
	var joinLatency harness.Series
	for _, l := range s.latencies {
		joinLatency.AddInt(int(l))
	}
	return []harness.Row{{
		harness.Int(nv), harness.Int(eng.NumNodes()), harness.Int(s.vrounds),
		harness.Int(s.churn), harness.Int(eng.AliveCount()),
		harness.Float(s.w.Summary().MeanAvailability), harness.Float(joinLatency.Mean()),
		harness.Int(s.joins), harness.Int(s.resets),
	}}
}

func (s *metroSoak) Checkpoint() checkpoint.Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	driver := s.appendDriver(nil)
	driver = wire.AppendUvarint(driver, uint64(len(s.latencies)))
	for _, l := range s.latencies {
		driver = wire.AppendVarint(driver, l)
	}
	for _, vr := range s.arrived {
		driver = wire.AppendUvarint(driver, uint64(vr))
	}
	return soakCheckpoint(s.w, driver)
}

func (s *metroSoak) Restore(cp checkpoint.Checkpoint) error {
	if err := s.restore(cp); err != nil {
		return fmt.Errorf("experiments: E11 restore: %w", err)
	}
	return nil
}

func (s *metroSoak) restore(cp checkpoint.Checkpoint) error {
	d := wire.Dec(cp.Driver)
	st, err := s.decodeDriver(&d)
	if err != nil {
		return err
	}
	nl := d.Count()
	latencies := make([]int64, 0, nl)
	for i := 0; i < nl; i++ {
		latencies = append(latencies, d.Varint())
	}
	arrived := make([]int, len(st.extras))
	for i := range arrived {
		arrived[i] = int(d.Uvarint())
	}
	if err := d.Finish(); err != nil {
		return err
	}
	for i, v := range st.extras {
		s.attachExtra(v, arrived[i])
	}
	s.latencies = latencies
	return s.restoreOver(cp, st)
}

// --- E13: adversary grid ---

type adversarySoak struct {
	*churnSoak
	// regionOf covers every replica ever attached, dead ones included: the
	// crash adversaries must not eat the measurement clients, and failover
	// must hand leadership on. joiners holds the mid-run ones' emulators
	// (a bootstrapped replica is joined from round 0 and never moves).
	regionOf map[sim.NodeID]vi.VNodeID
	joiners  map[sim.NodeID]*vi.Emulator
	// wiped[vr] is the region wiped at the start of virtual round vr; the
	// vround loop respawns joiners there one virtual round later.
	wiped map[int]vi.VNodeID
}

func newAdversarySoak(c *harness.Cell, parallel bool, shards int) *adversarySoak {
	kind, high := c.Params.Str("kind"), c.Params.Str("intensity") == "high"
	cols, rows := c.Params.Int("cols"), c.Params.Int("rows")
	seed := int64(cols*rows)*5 + c.Base()
	doc := spec.Spec{
		Seed: seed, VRounds: c.Params.Int("vrounds"), Grid: spec.Grid{Cols: cols, Rows: rows},
		Devices: spec.Devices{Replicas: soakReplicasPer, Pingers: true},
		Engine:  spec.Engine{Parallel: parallel, Shards: shards},
	}
	if kind == "jam" {
		doc.Faults = []spec.Fault{e13Jammer(high, cols, rows)}
	}
	s := &adversarySoak{
		churnSoak: newChurnSoak(c, buildWorld(doc)),
		regionOf:  map[sim.NodeID]vi.VNodeID{},
		joiners:   map[sim.NodeID]*vi.Emulator{},
		wiped:     map[int]vi.VNodeID{},
	}
	for v, reg := range s.rosters {
		for _, id := range reg {
			s.regionOf[id] = vi.VNodeID(v)
		}
	}
	e13Faults(s, kind, high, seed)
	return s
}

// e13Jammer is the jam kind's radio adversary as a spec fault: the whole
// jam cell is then a plain vinfra-spec/v1 document. The jammer rides in the
// medium configuration, so its duty cycle (in radio rounds) must be known
// before the world is built: the virtual-round length is derived up front.
func e13Jammer(high bool, cols, rows int) spec.Fault {
	locs := geo.Grid{Spacing: 6, Cols: cols, Rows: rows}.Locations()
	per := vi.Timing{S: vi.BuildSchedule(locs, Radii).Len()}.RoundsPerVRound()
	f := spec.Fault{
		Kind:   spec.KindRegionJammer,
		From:   per,
		Radius: 2.5, // the R1/4 region radius: replicas and client
		Period: 4 * per,
		Burst:  per,
		Rotate: (len(locs) + 2) / 3,
	}
	if high {
		f.Burst = 2 * per
		f.Rotate = 0 // every region
	}
	return f
}

// respawn attaches a fresh device near region v and records it as a
// replica of that region.
func (s *adversarySoak) respawn(v vi.VNodeID) sim.NodeID {
	id, em := s.churnSoak.respawn(int(v), nil)
	s.regionOf[id] = v
	s.joiners[id] = em
	return id
}

// dropReplica removes a dead replica from its roster and, if it led the
// region, promotes the oldest joined survivor (the failover a managed
// deployment performs).
func (s *adversarySoak) dropReplica(victim sim.NodeID) vi.VNodeID {
	v := s.regionOf[victim]
	reg := s.rosters[v]
	wasHead := len(reg) > 0 && reg[0] == victim
	for i, id := range reg {
		if id == victim {
			reg = append(reg[:i], reg[i+1:]...)
			break
		}
	}
	s.rosters[v] = reg
	if wasHead {
		next := -1
		for i, id := range reg {
			if em, mid := s.joiners[id]; !mid || em.Joined() {
				next = i
				break
			}
		}
		if next < 0 && len(reg) > 0 {
			next = 0
		}
		if next >= 0 {
			s.setLeader(int(v), reg[next])
		}
	}
	return v
}

// e13Faults registers the engine-level adversaries for the kind. The
// closures (Eligible, Respawn) close over the soak's live rosters, which is
// why they are code here rather than spec faults, and why they are rebuilt
// by the constructor on restore instead of riding in the checkpoint.
func e13Faults(s *adversarySoak, kind string, high bool, seed int64) {
	eng, per := s.w.Eng, s.w.RoundsPerVRound()
	switch kind {
	case "wipe":
		every := 5
		if high {
			every = 3
		}
		for k, w := 0, 2; w < s.vrounds; k, w = k+1, w+every {
			v := k % len(s.rosters)
			s.wiped[w] = vi.VNodeID(v)
			eng.AddFault(faults.RegionWipe{
				Center: s.w.Locs[v],
				Radius: 1.0, // replicas, not the client
				At:     sim.Round(w * per),
			})
		}
	case "storm":
		kills := 1
		if high {
			kills = 2
		}
		eng.AddFault(&faults.ChurnStorm{
			Window:   faults.Window{From: sim.Round(per)},
			Period:   per, // one front per virtual round
			Kills:    kills,
			Seed:     seed + 211,
			Eligible: func(id sim.NodeID) bool { _, replica := s.regionOf[id]; return replica },
			Respawn: func(victim sim.NodeID, _ geo.Point) {
				v := s.dropReplica(victim)
				newID := s.respawn(v)
				if len(s.rosters[v]) == 1 {
					// Last one standing: it will reset-revive the region
					// and must lead it.
					s.setLeader(int(v), newID)
				}
			},
		})
	case "burst":
		p := 0.12
		if high {
			p = 0.25
		}
		eng.AddFault(&faults.CrashBurst{
			Window: faults.Window{From: sim.Round(per)},
			Period: 2 * per,
			P:      p,
			Seed:   seed + 307,
			// Pure attrition spares the fixed leaders so degradation is
			// graceful: regions shrink toward single-replica operation.
			Eligible: func(id sim.NodeID) bool {
				v, ok := s.regionOf[id]
				if !ok {
					return false
				}
				reg := s.rosters[v]
				return len(reg) > 0 && reg[0] != id
			},
		})
	}
}

// StepVRound runs one virtual round under the adversary, reviving a region
// the round after a wipe annihilated it.
func (s *adversarySoak) StepVRound() {
	if v, ok := s.wiped[s.vr-1]; ok {
		// The region was annihilated last virtual round: two fresh devices
		// arrive and must revive it via join/reset. The first leads the
		// reborn region.
		s.rosters[v] = nil
		first := s.respawn(v)
		s.respawn(v)
		s.setLeader(int(v), first)
	}
	s.w.StepVRound()
	s.vr++
}

// Columns matches the E13 descriptor: the soak row is the cell row.
func (s *adversarySoak) Columns() []string { return e13Desc.Columns }

func (s *adversarySoak) Rows() []harness.Row {
	kind, intensity := s.c.Params.Str("kind"), s.c.Params.Str("intensity")
	eng, nv := s.w.Eng, len(s.w.Locs)
	sum := s.w.Mon.SummaryThrough(nv, s.vrounds)
	return []harness.Row{{
		harness.Int(nv), harness.Str(kind), harness.Str(intensity),
		harness.Int(eng.NumNodes()), harness.Int(eng.AliveCount()),
		harness.Int(s.vrounds),
		harness.Float(sum.MeanAvailability), harness.Int(sum.Unavailable),
		harness.Int(sum.MaxStall), harness.Float(sum.MeanRecovery),
		harness.Int(s.joins), harness.Int(s.resets),
	}}
}

func (s *adversarySoak) Checkpoint() checkpoint.Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return soakCheckpoint(s.w, s.appendDriver(nil))
}

func (s *adversarySoak) Restore(cp checkpoint.Checkpoint) error {
	if err := s.restore(cp); err != nil {
		return fmt.Errorf("experiments: E13 restore: %w", err)
	}
	return nil
}

func (s *adversarySoak) restore(cp checkpoint.Checkpoint) error {
	d := wire.Dec(cp.Driver)
	st, err := s.decodeDriver(&d)
	if err == nil {
		err = d.Finish()
	}
	if err != nil {
		return err
	}
	// respawn's bookkeeping over the replayed joiners records every id
	// ever attached, which is what regionOf and joiners must cover.
	for _, v := range st.extras {
		s.respawn(vi.VNodeID(v))
	}
	return s.restoreOver(cp, st)
}
