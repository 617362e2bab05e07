package spec

import (
	"fmt"
	"strconv"
	"sync"

	"vinfra/internal/apps"
	"vinfra/internal/cd"
	"vinfra/internal/checkpoint"
	"vinfra/internal/cm"
	"vinfra/internal/det"
	"vinfra/internal/faults"
	"vinfra/internal/geo"
	"vinfra/internal/mobility"
	"vinfra/internal/radio"
	"vinfra/internal/shard"
	"vinfra/internal/sim"
	"vinfra/internal/vi"
	"vinfra/internal/wire"
)

// fieldPad extends the virtual-node grid's bounding box on every side to
// form the roaming area (targets, listeners) and the cell jammer's bounds.
const fieldPad = 2.0

// Target is one roaming beacon device of a tracker world.
type Target struct {
	Name string
	ID   sim.NodeID
}

// World is a built deployment: the engine/deployment/monitor stack one spec
// describes, plus the virtual-round cursor and churn counters that make a
// run resumable. A World is not safe for concurrent use — one goroutine
// drives it (the service runs one goroutine per tenant); the Monitor alone
// is safe to read concurrently with stepping.
type World struct {
	Spec   Spec
	Eng    *sim.Engine
	Dep    *vi.Deployment
	Mon    *vi.Monitor
	Medium *radio.Medium
	Locs   []geo.Point
	// Observer collects tracking digests (app "tracker" with targets).
	Observer *apps.ObserverClient
	Targets  []Target

	per int
	vr  int
	// setLeaders holds the per-vnode leader handoff of the fixed regime
	// (nil under "regional").
	setLeaders []func(sim.NodeID)

	mu     sync.Mutex
	joins  int
	resets int
}

// counterState is the default virtual node program's state: it counts
// client messages and broadcasts the count when scheduled (the reference
// program of the experiment suite).
type counterState struct {
	Pings int
}

func counterProgram(sched vi.Schedule) func(vi.VNodeID) vi.Program {
	return func(v vi.VNodeID) vi.Program {
		return vi.Codec[counterState]{
			InitState: func(vi.VNodeID, geo.Point) counterState { return counterState{} },
			Step: func(s counterState, _ int, in vi.RoundInput) counterState {
				s.Pings += len(in.Msgs)
				return s
			},
			Out: func(s counterState, vround int) *vi.Message {
				if !sched.ScheduledIn(v, vround-1) {
					return nil
				}
				b := append(make([]byte, 0, 16), "count="...)
				return &vi.Message{Payload: strconv.AppendInt(b, int64(s.Pings), 10)}
			},
			EncodeState: func(dst []byte, s counterState) []byte {
				return wire.AppendUvarint(dst, uint64(s.Pings))
			},
			DecodeState: func(d *wire.Decoder) (counterState, error) {
				return counterState{Pings: int(d.Uvarint())}, d.Err()
			},
		}
	}
}

// pingPayload is virtual node v's pinger's message in virtual round vr:
// "ping-%02d-%04d", without fmt's boxing.
func pingPayload(v, vr int) []byte {
	b := append(make([]byte, 0, 16), "ping-"...)
	b = appendPadded(b, v, 2)
	b = append(b, '-')
	return appendPadded(b, vr, 4)
}

// appendPadded appends the decimal form of n >= 0, zero-padded to width
// digits, as %0*d would.
func appendPadded(b []byte, n, width int) []byte {
	digits := 1
	for x := n; x >= 10; x /= 10 {
		digits++
	}
	for ; digits < width; digits++ {
		b = append(b, '0')
	}
	return strconv.AppendInt(b, int64(n), 10)
}

// Build turns a spec into a runnable world. The construction is a pure
// function of the spec: every Attach happens in a fixed order (replicas,
// pingers, targets, observer, listeners) and every seed derives from the
// spec seed, so the same spec always produces the same world — and, driven
// the same number of rounds, byte-identical snapshots.
func Build(s Spec) (*World, error) {
	s.ApplyDefaults()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	grid := geo.Grid{Spacing: s.Grid.Spacing, Cols: s.Grid.Cols, Rows: s.Grid.Rows}
	locs := grid.Locations()
	radii := geo.Radii{R1: s.Radii.R1, R2: s.Radii.R2}
	sched := vi.BuildSchedule(locs, radii)

	cfg := vi.DeploymentConfig{
		Locations: locs,
		Radii:     radii,
		VMax:      s.Devices.VMax,
	}
	switch s.App {
	case "tracker":
		cfg.Program = apps.TrackerProgram(sched, apps.TrackerConfig{})
	default:
		cfg.Program = counterProgram(sched)
	}
	var setLeaders []func(sim.NodeID)
	if s.Leader == "fixed" {
		factories := make([]cm.Factory, len(locs))
		setLeaders = make([]func(sim.NodeID), len(locs))
		for v := range locs {
			factories[v], setLeaders[v] = cm.NewFixed(sim.NodeID(v * s.Devices.Replicas))
		}
		cfg.NewCM = func(v vi.VNodeID, env sim.Env) cm.Manager {
			return factories[v](env)
		}
	}
	dep, err := vi.NewDeployment(cfg)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}

	bounds := grid.Bounds()
	area := geo.Rect{
		Min: geo.Point{X: bounds.Min.X - fieldPad, Y: bounds.Min.Y - fieldPad},
		Max: geo.Point{X: bounds.Max.X + fieldPad, Y: bounds.Max.Y + fieldPad},
	}

	var jammers faults.Jammers
	for i := range s.Faults {
		if s.Faults[i].IsJammer() {
			jammers = append(jammers, s.Faults[i].jammer(area, locs))
		}
	}
	mediumCfg := radio.Config{
		Radii:    radii,
		Detector: cd.AC{},
		Seed:     s.Seed,
	}
	switch len(jammers) {
	case 0:
	case 1:
		mediumCfg.Adversary = jammers[0]
	default:
		mediumCfg.Adversary = jammers
	}
	engOpts := []sim.Option{sim.WithSeed(s.Seed)}
	if s.Engine.Parallel {
		engOpts = append(engOpts, sim.WithWorkers(s.Engine.Workers)) // 0 = unbounded WithParallel
	}
	if s.Engine.Shards > 0 {
		cols, rows := shard.Split(s.Engine.Shards)
		engOpts = append(engOpts, sim.WithRegionShards(cols, rows, radii.R2, func() sim.Medium {
			return radio.MustMedium(mediumCfg)
		}))
	}
	medium, err := radio.NewMedium(mediumCfg)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}

	w := &World{
		Spec:   s,
		Eng:    sim.NewEngine(medium, engOpts...),
		Dep:    dep,
		Mon:    vi.NewMonitor(),
		Medium: medium,
		Locs:   locs,

		per:        dep.Timing().RoundsPerVRound(),
		setLeaders: setLeaders,
	}

	// Replicas: bootstrapped emulators clustered inside each region,
	// feeding the world's churn counters.
	counted := vi.EmulatorHooks{
		OnJoin: func(vi.VNodeID, int) {
			w.mu.Lock()
			w.joins++
			w.mu.Unlock()
		},
		OnReset: func(vi.VNodeID, int) {
			w.mu.Lock()
			w.resets++
			w.mu.Unlock()
		},
	}
	for _, loc := range locs {
		for i := 0; i < s.Devices.Replicas; i++ {
			w.AttachReplica(geo.Point{X: loc.X + 0.3*float64(i) - 0.5, Y: loc.Y + 0.2}, true, counted)
		}
	}

	// Pingers: one stationary client per region, staggered so neighboring
	// pings don't collide every client slot.
	if s.Devices.Pingers {
		for v, loc := range locs {
			v := v
			w.Eng.Attach(geo.Point{X: loc.X + 1.2, Y: loc.Y - 1}, nil, func(env sim.Env) sim.Node {
				return dep.NewClient(env, vi.ClientFunc(
					func(vr int, _ []vi.Message, _ bool) *vi.Message {
						if vr%4 != v%4 {
							return nil
						}
						return &vi.Message{Payload: pingPayload(v, vr)}
					}))
			})
		}
	}

	// Targets: roaming beacon clients, plus one stationary observer in the
	// corner collecting tracking digests.
	if s.Devices.Targets > 0 {
		for i := 0; i < s.Devices.Targets; i++ {
			name := fmt.Sprintf("target-%02d", i)
			start := geo.Point{X: area.Min.X + float64(i), Y: area.Min.Y}
			id := w.Eng.Attach(start, &mobility.RandomWaypoint{Area: area, VMax: s.Devices.VMax},
				func(env sim.Env) sim.Node {
					return dep.NewClient(env, &apps.TargetClient{
						Name:   name,
						Period: 2,
						Pos:    env.Location,
					})
				})
			w.Targets = append(w.Targets, Target{Name: name, ID: id})
		}
		w.Observer = &apps.ObserverClient{}
		w.Eng.Attach(locs[0], nil, func(env sim.Env) sim.Node {
			return dep.NewClient(env, w.Observer)
		})
	}

	// Listeners: receive-only roaming clients spread uniformly over the
	// field by a seed-keyed stream, so the population is a pure function of
	// the spec.
	if s.Devices.Listeners > 0 {
		rng := det.NewStream(s.Seed + 404)
		for i := 0; i < s.Devices.Listeners; i++ {
			pos := geo.Point{
				X: area.Min.X + rng.Float64()*area.Width(),
				Y: area.Min.Y + rng.Float64()*area.Height(),
			}
			w.Eng.Attach(pos, &mobility.RandomWaypoint{Area: area, VMax: s.Devices.VMax},
				func(env sim.Env) sim.Node {
					return dep.NewClient(env, vi.ClientFunc(
						func(int, []vi.Message, bool) *vi.Message { return nil }))
				})
		}
	}

	// Engine-level faults, in spec order (jammers already ride the medium).
	for i := range s.Faults {
		if s.Faults[i].IsJammer() {
			continue
		}
		f, err := s.Faults[i].engineFault()
		if err != nil {
			return nil, err
		}
		w.Eng.AddFault(f)
	}
	return w, nil
}

// AttachReplica attaches one emulator device at pos and returns it — the
// single replica-attach path: Build places the bootstrapped replicas through
// it, and a driver modelling churn calls it mid-run for each arriving device
// (bootstrap false: the device acquires state through the join protocol).
// hooks carries the caller's OnJoin and OnReset — the world's Joins/Resets
// count only the replicas Build attached; OnOutput is the world's and is
// overwritten: every emulator output feeds the availability monitor. A
// driver that checkpoints must re-attach its mid-run replicas, in order, on
// the rebuilt world before Restore so the node population matches.
func (w *World) AttachReplica(pos geo.Point, bootstrap bool, hooks vi.EmulatorHooks) *vi.Emulator {
	hooks.OnOutput = w.Mon.Observe
	var em *vi.Emulator
	w.Eng.Attach(pos, nil, func(env sim.Env) sim.Node {
		em = w.Dep.NewEmulator(env, bootstrap)
		em.SetHooks(hooks)
		return em
	})
	return em
}

// SetLeader hands virtual node v's leadership to node id, the failover a
// managed deployment performs when the current leader departs. It needs the
// "fixed" leader regime; under "regional" the managers elect for themselves
// and SetLeader returns an error.
func (w *World) SetLeader(v vi.VNodeID, id sim.NodeID) error {
	if w.setLeaders == nil {
		return fmt.Errorf("spec: SetLeader needs leader %q (this world runs %q)", "fixed", w.Spec.Leader)
	}
	if v < 0 || int(v) >= len(w.setLeaders) {
		return fmt.Errorf("spec: SetLeader: no virtual node %d (world has %d)", v, len(w.setLeaders))
	}
	w.setLeaders[v](id)
	return nil
}

// VRound returns the next virtual round to execute (0-based; equal to
// VRounds when the run is complete).
func (w *World) VRound() int { return w.vr }

// VRounds returns the spec's virtual-round horizon.
func (w *World) VRounds() int { return w.Spec.VRounds }

// RoundsPerVRound returns the deployment's radio rounds per virtual round.
func (w *World) RoundsPerVRound() int { return w.per }

// StepVRound executes one virtual round.
func (w *World) StepVRound() {
	w.Eng.Run(w.per)
	w.vr++
}

// Joins returns the number of join-protocol completions observed.
func (w *World) Joins() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.joins
}

// Resets returns the number of region resets observed.
func (w *World) Resets() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.resets
}

// Report returns virtual node v's availability accounting through the
// virtual rounds executed so far (instances no replica reported count as
// unavailable — the right accounting under adversaries).
func (w *World) Report(v vi.VNodeID) vi.AvailabilityReport {
	return w.Mon.ReportThrough(v, w.vr)
}

// Summary aggregates availability over the whole deployment through the
// virtual rounds executed so far.
func (w *World) Summary() vi.AvailabilitySummary {
	return w.Mon.SummaryThrough(len(w.Locs), w.vr)
}

// InjectFault validates f, registers it on the engine, and appends it to
// the world's effective spec — so Spec.JSON() after an injection is exactly
// the spec that, listed up front, reproduces the run (the fault's default
// seed derives from its index, which is the same either way). Jammer kinds
// are build-time only and rejected here.
func (w *World) InjectFault(f Fault) error {
	if f.IsJammer() {
		return fmt.Errorf("spec: %s rides in the medium configuration and cannot be injected mid-run (list it in the spec)", f.Kind)
	}
	f.applyDefaults(&w.Spec, len(w.Spec.Faults))
	if err := f.validate(); err != nil {
		return fmt.Errorf("spec: fault: %w", err)
	}
	ef, err := f.engineFault()
	if err != nil {
		return err
	}
	w.Eng.AddFault(ef)
	w.Spec.Faults = append(w.Spec.Faults, f)
	return nil
}

// driverBytes encodes the world's own resume state: the virtual-round
// cursor and the churn counters that live outside the engine snapshot.
func (w *World) driverBytes() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	dst := wire.AppendUvarint(nil, uint64(w.vr))
	dst = wire.AppendUvarint(dst, uint64(w.joins))
	return wire.AppendUvarint(dst, uint64(w.resets))
}

// Checkpoint captures the full run state at the current virtual-round
// boundary. The bytes are canonical: two runs of the same effective spec
// checkpointed at the same virtual round encode identically, whatever
// process (or machine) drove them — the property the service's API
// determinism contract is pinned on.
func (w *World) Checkpoint() checkpoint.Checkpoint {
	return checkpoint.Checkpoint{
		Engine:  w.Eng.Snapshot(),
		Medium:  w.Medium.Snapshot(),
		Monitor: w.Mon.Snapshot(),
		Driver:  w.driverBytes(),
	}
}

// Restore lays a checkpoint over a freshly built world. The world must have
// been built from the same effective spec the checkpoint was taken under
// (including any faults injected before the checkpoint); the engine rejects
// mismatched populations, seeds, shard geometry and fault sets.
func (w *World) Restore(cp checkpoint.Checkpoint) error {
	d := wire.Dec(cp.Driver)
	vr := int(d.Uvarint())
	joins := int(d.Uvarint())
	resets := int(d.Uvarint())
	if err := d.Finish(); err != nil {
		return fmt.Errorf("spec: restore: driver state: %w", err)
	}
	if err := w.Medium.Restore(cp.Medium); err != nil {
		return fmt.Errorf("spec: restore: %w", err)
	}
	if err := w.Eng.Restore(cp.Engine); err != nil {
		return fmt.Errorf("spec: restore: %w", err)
	}
	w.Mon.Restore(cp.Monitor)
	w.mu.Lock()
	w.vr, w.joins, w.resets = vr, joins, resets
	w.mu.Unlock()
	return nil
}

// Lookup returns the observer's freshest believed position for a tracked
// target name (tracker worlds only).
func (w *World) Lookup(name string) (geo.Point, bool) {
	if w.Observer == nil {
		return geo.Point{}, false
	}
	sg, ok := w.Observer.Lookup(name)
	if !ok {
		return geo.Point{}, false
	}
	return geo.Point{X: sg.X, Y: sg.Y}, true
}
