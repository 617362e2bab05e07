package sim_test

import (
	"bytes"
	"fmt"
	"testing"

	"vinfra/internal/apps"
	"vinfra/internal/checkpoint"
	"vinfra/internal/experiments"
	"vinfra/internal/geo"
	"vinfra/internal/harness"
	"vinfra/internal/sim"
	"vinfra/internal/spec"
	"vinfra/internal/vi"
)

// The oracle: sleeping is unobservable. Every vi.Client sleeps from the end
// of the vn phase to the next client phase and every vi.Emulator through the
// phases and ballot slots that are not its virtual node's; with SetSleepOff
// the engine ignores that, which is how it ran before nodes could sleep. A
// world stepped both ways must encode to the same checkpoint bytes at every
// virtual-round boundary — whatever listens, pings, tracks, joins, dies or
// jams in it, on the sequential, the parallel and the region-sharded engine —
// and, for the worlds of the every-round oracle further down, to the same
// engine snapshot after every single radio round.

// stepper is a world the oracle can drive: spec worlds (the E9 application
// worlds below among them) and the E13 soaks.
type stepper interface {
	StepVRound()
	Checkpoint() checkpoint.Checkpoint
}

// engineKind names the three engines every oracle world runs on.
type engineKind int

const (
	sequential engineKind = iota
	parallel              // WithWorkers(4)
	sharded               // 2x2 region shards, four workers
)

func (k engineKind) String() string {
	return [...]string{"sequential", "parallel", "sharded"}[k]
}

func (k engineKind) spec() spec.Engine {
	switch k {
	case parallel:
		return spec.Engine{Workers: 4}
	case sharded:
		return spec.Engine{Workers: 4, Shards: 4}
	}
	return spec.Engine{}
}

// checkSleepOracle builds the world twice and steps the pair in lockstep,
// one with SleepUntil ignored.
func checkSleepOracle(t *testing.T, name string, vrounds int, build func() stepper) {
	t.Run(name, func(t *testing.T) {
		defer sim.SetSleepOff(false)
		on, off := build(), build()
		for vr := 1; vr <= vrounds; vr++ {
			sim.SetSleepOff(true)
			off.StepVRound()
			sim.SetSleepOff(false)
			on.StepVRound()
			if !bytes.Equal(on.Checkpoint().Encode(), off.Checkpoint().Encode()) {
				t.Fatalf("after virtual round %d the checkpoint differs from the run with SleepUntil ignored", vr)
			}
		}
	})
}

func mustBuild(s spec.Spec) *spec.World {
	s.Version = spec.Version
	w, err := spec.Build(s)
	if err != nil {
		panic(err)
	}
	return w
}

// cityMini is the city workloads' population in small: replicas, a pinger
// per region, roaming targets with their observer, 2000 roaming listeners.
func cityMini(eng spec.Engine) spec.Spec {
	return spec.Spec{
		Seed: 5, VRounds: 1 << 20, Grid: spec.Grid{Cols: 4, Rows: 4}, App: "tracker",
		Devices: spec.Devices{Replicas: 3, Pingers: true, Targets: 3, Listeners: 2000},
		Engine:  eng,
	}
}

// hostile is a pinged grid under both jammer kinds — adversaries the medium
// would have consulted for every sleeping client — and engine faults that
// wipe a region, crash in bursts and herd devices around.
func hostile(eng spec.Engine) spec.Spec {
	return spec.Spec{
		Seed: 9, VRounds: 1 << 20, Grid: spec.Grid{Cols: 3, Rows: 3},
		Devices: spec.Devices{Replicas: 3, Pingers: true, Listeners: 60},
		Engine:  eng,
		Faults: []spec.Fault{
			{Kind: spec.KindRegionJammer, From: 21, Period: 84, Burst: 42},
			{Kind: spec.KindCellJammer, From: 40, Cells: 2},
			{Kind: spec.KindRegionWipe, At: 130, X: 6, Y: 6, Radius: 2},
			{Kind: spec.KindCrashBurst, From: 200, Period: 45, P: 0.04},
			{Kind: spec.KindHerd, From: 60, X: 3, Y: 3, Frac: 0.3, Step: 0.05},
		},
	}
}

// e13 builds one E13 cell: the soaks kill and respawn replicas, attach the
// joiners mid-run and hand leadership on. They always run parallel.
func e13(kind string, shards int) func() stepper {
	return func() stepper {
		so, err := experiments.NewSoak("E13", &harness.Cell{Seed: 1, Params: harness.Params{
			Label: kind + "/high/3x3",
			Ints:  map[string]int{"cols": 3, "rows": 3, "vrounds": 24},
			Strs:  map[string]string{"kind": kind, "intensity": "high"},
		}}, shards)
		if err != nil {
			panic(err)
		}
		return so
	}
}

// routerWorld is E9a: packets routed east along a chain of virtual nodes.
func routerWorld(kind engineKind) stepper {
	w := mustBuild(spec.Spec{
		Seed: 3, VRounds: 1 << 20, Grid: spec.Grid{Cols: 4, Rows: 1, Spacing: 5},
		App: "router", Devices: spec.Devices{Replicas: 2}, Engine: kind.spec(),
	})
	east := w.Locs[len(w.Locs)-1]
	sends := map[int]*vi.Message{}
	for p := 0; p < 4; p++ {
		sends[2+5*p] = apps.RouteSend(east, fmt.Sprintf("pkt-%d", p), "payload")
	}
	w.Eng.Attach(geo.Point{X: -1, Y: -1}, nil, func(env sim.Env) sim.Node {
		return w.Dep.NewClient(env, &apps.RouterClient{Sends: sends})
	})
	w.Eng.Attach(geo.Point{X: east.X + 1, Y: 1}, nil, func(env sim.Env) sim.Node {
		return w.Dep.NewClient(env, &apps.RouterClient{})
	})
	return w
}

// lockWorld is E9b: clients contending for a virtual-node lock.
func lockWorld(kind engineKind) stepper {
	w := mustBuild(spec.Spec{
		Seed: 3, VRounds: 1 << 20, Grid: spec.Grid{Cols: 1, Rows: 1},
		App: "lock", Engine: kind.spec(),
	})
	for i := 0; i < 4; i++ {
		angle := float64(i) / 4
		cli := &apps.LockClient{Name: fmt.Sprintf("c%02d", i), HoldRounds: 2, Cycles: 1 << 20}
		w.Eng.Attach(geo.Point{X: 1.5 * (0.5 - angle), Y: 1.2 - 2.4*angle}, nil, func(env sim.Env) sim.Node {
			return w.Dep.NewClient(env, cli)
		})
	}
	return w
}

func checkSleepOracleOn(t *testing.T, kind engineKind) {
	checkSleepOracle(t, "city", 20, func() stepper { return mustBuild(cityMini(kind.spec())) })
	checkSleepOracle(t, "hostile", 24, func() stepper { return mustBuild(hostile(kind.spec())) })
	checkSleepOracle(t, "router", 30, func() stepper { return routerWorld(kind) })
	checkSleepOracle(t, "lock", 30, func() stepper { return lockWorld(kind) })
}

func TestSleepOracle(t *testing.T) { checkSleepOracleOn(t, sequential) }

func TestParallelSleepOracle(t *testing.T) {
	checkSleepOracleOn(t, parallel)
	for _, kind := range []string{"storm", "wipe", "jam"} {
		checkSleepOracle(t, "E13-"+kind, 24, e13(kind, 0))
	}
}

func TestShardedSleepOracle(t *testing.T) {
	checkSleepOracleOn(t, sharded)
	for _, kind := range []string{"storm", "wipe", "jam"} {
		checkSleepOracle(t, "E13-"+kind, 24, e13(kind, 4))
	}
}

// The oracle at radio-round granularity. What a node may sleep through is
// fixed by what a snapshot records, not by what is consumed later — a
// replica of an unscheduled virtual node never acts on the join activity it
// notes, but the note is in its snapshot — so a run with sleepers must be
// indistinguishable in the middle of a virtual round too: a hook on either
// engine encodes Engine.Snapshot after every radio round, and the two
// sequences must be byte-identical.

// engineOf digs the engine out of an oracle world.
func engineOf(s stepper) *sim.Engine {
	switch w := s.(type) {
	case *spec.World:
		return w.Eng
	case *churnWorld:
		return w.Eng
	case interface{ World() *spec.World }: // the E13 soaks
		return w.World().Eng
	}
	panic(fmt.Sprintf("no engine in a %T", s))
}

// everyRound collects the encoded engine snapshot after every radio round.
func everyRound(eng *sim.Engine) *[][]byte {
	var snaps [][]byte
	eng.OnRound(func(sim.Round, []sim.Transmission, []sim.Reception) {
		snaps = append(snaps, eng.Snapshot().AppendTo(nil))
	})
	return &snaps
}

// checkSleepOracleEveryRound returns the stepped world that honoured
// SleepUntil and ListenUntil.
func checkSleepOracleEveryRound(t *testing.T, name string, vrounds int, build func() stepper) (on stepper) {
	t.Run(name, func(t *testing.T) {
		defer sim.SetSleepOff(false)
		var off stepper
		on, off = build(), build()
		onSnaps, offSnaps := everyRound(engineOf(on)), everyRound(engineOf(off))
		for vr := 1; vr <= vrounds; vr++ {
			sim.SetSleepOff(true)
			off.StepVRound()
			sim.SetSleepOff(false)
			on.StepVRound()
			if len(*onSnaps) == 0 || len(*onSnaps) != len(*offSnaps) {
				t.Fatalf("virtual round %d took %d radio rounds, %d with SleepUntil ignored", vr, len(*onSnaps), len(*offSnaps))
			}
			for i := range *onSnaps {
				if !bytes.Equal((*onSnaps)[i], (*offSnaps)[i]) {
					t.Fatalf("after radio round %d of virtual round %d the engine snapshot differs from the run with SleepUntil ignored", i, vr)
				}
			}
			*onSnaps, *offSnaps = nil, nil
		}
	})
	return on
}

// churnWorld is a 2x2 grid scripted through the join sub-protocol's three
// phases: a device walks into a live region and is acked in (join,
// join-ack), then a region loses every replica and the next device to walk
// in finds nobody to ack it and resets the virtual node (reset).
type churnWorld struct {
	*spec.World
}

func newChurnWorld(eng spec.Engine) *churnWorld {
	return &churnWorld{World: mustBuild(spec.Spec{
		Seed: 13, VRounds: 1 << 20, Grid: spec.Grid{Cols: 2, Rows: 2},
		Devices: spec.Devices{Replicas: 2, Pingers: true, Listeners: 12},
		Engine:  eng,
	})}
}

func (w *churnWorld) StepVRound() {
	switch w.VRound() {
	case 1:
		at := w.Locs[3]
		w.AttachReplica(geo.Point{X: at.X + 0.7, Y: at.Y - 0.4}, false, nil)
	case 2:
		w.Eng.Crash(0) // virtual node 0's two replicas
		w.Eng.Crash(1)
		at := w.Locs[0]
		w.AttachReplica(geo.Point{X: at.X - 0.5, Y: at.Y + 0.6}, false, nil)
		if err := w.SetLeader(0, sim.NodeID(w.Eng.NumNodes()-1)); err != nil {
			panic(err)
		}
	}
	w.World.StepVRound()
}

func checkSleepOracleEveryRoundOn(t *testing.T, kind engineKind) {
	checkSleepOracleEveryRound(t, "city", 3, func() stepper { return mustBuild(cityMini(kind.spec())) })
	checkSleepOracleEveryRound(t, "hostile", 12, func() stepper { return mustBuild(hostile(kind.spec())) })
	churned := checkSleepOracleEveryRound(t, "churn", 12, func() stepper { return newChurnWorld(kind.spec()) }).(*churnWorld)
	if churned.Joins() != 1 || churned.Resets() != 1 {
		t.Errorf("the churn world saw %d joins and %d resets, want one of each: the oracle did not exercise join-ack and reset", churned.Joins(), churned.Resets())
	}
	// The join requests and the acks' collisions wake replicas listening in
	// join and join-ack: the oracle holds the wake-up path too.
	if woken := churned.Eng.Counts().Woken; woken == 0 {
		t.Errorf("no listener of the churn world was woken by a reception: the oracle did not exercise the wake-up path")
	} else {
		t.Logf("%s: %d listeners woken by a reception", kind, woken)
	}
}

func TestSleepOracleEveryRound(t *testing.T) { checkSleepOracleEveryRoundOn(t, sequential) }

func TestParallelSleepOracleEveryRound(t *testing.T) {
	checkSleepOracleEveryRoundOn(t, parallel)
	checkSleepOracleEveryRound(t, "E13-storm", 8, e13("storm", 0))
}

func TestShardedSleepOracleEveryRound(t *testing.T) {
	checkSleepOracleEveryRoundOn(t, sharded)
	checkSleepOracleEveryRound(t, "E13-storm", 8, e13("storm", 4))
}

// TestShardedSleepOracleRestoreFork snapshots the city in the middle of a
// virtual round, when every client is asleep, and lays the snapshot over
// fresh builds — where everyone is awake: the restored world must run on to
// the checkpoints of the one that never stopped, whether it then honours
// SleepUntil or ignores it.
func TestShardedSleepOracleRestoreFork(t *testing.T) {
	for _, kind := range []engineKind{sequential, parallel, sharded} {
		t.Run(kind.String(), func(t *testing.T) {
			defer sim.SetSleepOff(false)
			doc := cityMini(kind.spec())
			live := mustBuild(doc)
			for i := 0; i < 3; i++ {
				live.StepVRound()
			}
			half := live.RoundsPerVRound() / 2
			live.Eng.Run(half)
			cp := live.Checkpoint()

			restored, oracle := mustBuild(doc), mustBuild(doc)
			for _, w := range []*spec.World{restored, oracle} {
				if err := w.Restore(cp); err != nil {
					t.Fatal(err)
				}
			}
			n := live.RoundsPerVRound() - half // finish the interrupted virtual round
			for vr := 0; vr < 20; vr++ {
				live.Eng.Run(n)
				restored.Eng.Run(n)
				sim.SetSleepOff(true)
				oracle.Eng.Run(n)
				sim.SetSleepOff(false)
				n = live.RoundsPerVRound()
				want := live.Checkpoint().Encode()
				if !bytes.Equal(restored.Checkpoint().Encode(), want) {
					t.Fatalf("%d virtual rounds on, the restored world differs from the one that never stopped", vr+1)
				}
				if !bytes.Equal(oracle.Checkpoint().Encode(), want) {
					t.Fatalf("%d virtual rounds on, the restored world with SleepUntil ignored differs from the one that never stopped", vr+1)
				}
			}
		})
	}
}

// TestMetroCallsCounted is the counted gate on listening and on quiet
// rounds: on the metro-vi benchmark's world (15x15 virtual nodes, three
// replicas and a pinger each, 900 devices), after 200 warm-up virtual
// rounds, the engine calls Transmit exactly 3 150 times a virtual round —
// four rounds for each replica (client, vn, its ballot and veto-2) and two
// for each pinger — and computes 2 475 receptions: three for each replica
// (client, vn and its ballot slot) and two for each pinger. A replica's
// other rounds — the vetoes, join, join-ack and reset — carry no
// transmission on metro, so they are quiet and no medium is asked; before
// the engine knew quiet rounds it computed eight for each replica, 5 850.
// With SleepUntil and ListenUntil ignored it calls every device in each of
// the 90 radio rounds of a virtual round, 81 000 Transmit calls, and computes
// receptions in the 80 of them that carry a transmission: 72 000.
func TestMetroCallsCounted(t *testing.T) {
	defer sim.SetSleepOff(false)
	const warm, vrounds = 200, 10
	for _, c := range []struct {
		sleepOff              bool
		transmits, receptions int
	}{{false, 3150, 2475}, {true, 81000, 72000}} {
		sim.SetSleepOff(c.sleepOff)
		w := mustBuild(spec.Spec{
			Seed: 1, VRounds: 1 << 30, Grid: spec.Grid{Cols: 15, Rows: 15},
			Devices: spec.Devices{Replicas: 3, Pingers: true},
		})
		for vr := 0; vr < warm; vr++ {
			w.StepVRound()
		}
		before := w.Eng.Counts()
		for vr := 0; vr < vrounds; vr++ {
			w.StepVRound()
		}
		after := w.Eng.Counts()
		tx, rx := (after.Transmits-before.Transmits)/vrounds, (after.Receptions-before.Receptions)/vrounds
		t.Logf("sleep off %v: %d Transmit calls and %d receptions a virtual round, %d wake-ups in %d virtual rounds",
			c.sleepOff, tx, rx, after.Woken-before.Woken, vrounds)
		if tx*vrounds != after.Transmits-before.Transmits || tx != c.transmits || rx != c.receptions {
			t.Errorf("sleep off %v: %d Transmit calls and %d receptions in %d virtual rounds, want %d and %d a virtual round",
				c.sleepOff, after.Transmits-before.Transmits, after.Receptions-before.Receptions, vrounds, c.transmits, c.receptions)
		}
	}
}
