package vi_test

import (
	"fmt"
	"math"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/cha"
	"vinfra/internal/geo"
	"vinfra/internal/mobility"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
	"vinfra/internal/vi"
)

// TestMobileReplicasWithBackoffCM runs a single virtual node emulated by
// devices that wander inside the region (random waypoints in the square
// inscribed in the radius-1 disk around the location) under the default
// regional backoff contention manager — no oracle anywhere. The virtual node must make
// progress (green rounds) once the election settles, and replicas must
// stay consistent.
func TestMobileReplicasWithBackoffCM(t *testing.T) {
	locs := []geo.Point{{X: 0, Y: 0}}
	const vmax = 0.02
	dep, err := vi.NewDeployment(vi.DeploymentConfig{
		Locations: locs,
		Radii:     testRadii,
		Program:   counterProgram,
		VMax:      vmax,
	})
	if err != nil {
		t.Fatal(err)
	}
	medium := radio.MustMedium(radio.Config{Radii: testRadii, Detector: cd.AC{}, Seed: 5})
	eng := sim.NewEngine(medium, sim.WithSeed(5))

	half := 1 / math.Sqrt2
	wander := geo.Rect{
		Min: geo.Point{X: locs[0].X - half, Y: locs[0].Y - half},
		Max: geo.Point{X: locs[0].X + half, Y: locs[0].Y + half},
	}
	var emulators []*vi.Emulator
	greens := make(map[sim.NodeID]int)
	roam := &mobility.RandomWaypoint{Area: wander, VMax: vmax}
	for i := 0; i < 4; i++ {
		pos := geo.Point{X: 0.2 * float64(i), Y: 0.1}
		eng.Attach(pos, roam, func(env sim.Env) sim.Node {
			em := dep.NewEmulator(env, true)
			id := env.ID()
			em.SetHooks(&vi.EmulatorHooks{
				OnOutput: func(_ vi.VNodeID, out cha.Output) {
					if out.Color == cha.Green {
						greens[id]++
					}
				},
			})
			emulators = append(emulators, em)
			return em
		})
	}

	const vrounds = 60
	eng.Run(vrounds * dep.Timing().RoundsPerVRound())

	totalGreens := 0
	for _, g := range greens {
		totalGreens += g
	}
	if totalGreens == 0 {
		t.Fatal("virtual node never made progress under backoff CM")
	}
	// Consistency across joined replicas.
	var want string
	for i, em := range emulators {
		if !em.Joined() {
			continue
		}
		got := string(em.StateBefore(vrounds + 1))
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("replica %d diverged", i)
		}
	}
}

// TestTravelerJoinsRemoteRegion drives a device from one region to another
// (0.35 units a round toward region 1, set before each round); it must leave
// the first virtual node and join the second via the join protocol.
func TestTravelerJoinsRemoteRegion(t *testing.T) {
	locs := []geo.Point{{X: 0, Y: 0}, {X: 60, Y: 0}}
	tb := newTestbed(t, testbedOpts{
		locs:        locs,
		replicasPer: 2,
		leaders:     true,
	})
	// A traveler starts in region 0 and marches toward region 1.
	var traveler *vi.Emulator
	joins := make(map[vi.VNodeID]int)
	pos := geo.Point{X: 0.5, Y: 0}
	id := tb.eng.Attach(pos, nil, func(env sim.Env) sim.Node {
		traveler = tb.dep.NewEmulator(env, true)
		traveler.SetHooks(&vi.EmulatorHooks{
			OnJoin: func(v vi.VNodeID, vr int) { joins[v] = vr },
		})
		return traveler
	})

	// 60 units at 0.35/round needs ~170 rounds = ~14 vrounds (s=1: 13
	// rounds per vround); run enough for arrival plus the join handshake.
	for r := 0; r < 30*tb.dep.Timing().RoundsPerVRound(); r++ {
		pos.X = min(pos.X+0.35, locs[1].X)
		tb.eng.SetPosition(id, pos)
		tb.eng.Step()
	}

	if traveler.VNode() != 1 {
		t.Fatalf("traveler serves VN %d, want 1 (pos %v)", traveler.VNode(), tb.eng.Position(id))
	}
	if !traveler.Joined() {
		t.Fatal("traveler never joined the destination virtual node")
	}
	if _, ok := joins[1]; !ok {
		t.Error("OnJoin hook did not fire for the destination region")
	}
}

// TestVNodeSurvivesTotalReplicaTurnover replaces the entire replica
// population of a virtual node one device at a time; the virtual node's
// state must survive (reliability through churn — the core promise of
// virtual infrastructure).
func TestVNodeSurvivesTotalReplicaTurnover(t *testing.T) {
	locs := []geo.Point{{X: 0, Y: 0}}
	leaders := []sim.NodeID{0}
	dep, err := vi.NewDeployment(vi.DeploymentConfig{
		Locations: locs,
		Radii:     testRadii,
		Program:   counterProgram,
		Leaders:   leaders,
	})
	if err != nil {
		t.Fatal(err)
	}
	medium := radio.MustMedium(radio.Config{Radii: testRadii, Detector: cd.AC{}})
	eng := sim.NewEngine(medium)

	var gen0 []*vi.Emulator
	for i := 0; i < 2; i++ {
		pos := geo.Point{X: 0.4 * float64(i), Y: 0}
		eng.Attach(pos, nil, func(env sim.Env) sim.Node {
			em := dep.NewEmulator(env, true)
			gen0 = append(gen0, em)
			return em
		})
	}
	// A pinging client feeds state into the VN.
	eng.Attach(geo.Point{X: 1.5, Y: 1}, nil, func(env sim.Env) sim.Node {
		return dep.NewClient(env, vi.ClientFunc(
			func(vr int, recv []vi.Message, coll bool) *vi.Message {
				return vi.Text(fmt.Sprintf("ping-%03d", vr))
			}))
	})
	per := dep.Timing().RoundsPerVRound()
	eng.Run(6 * per)

	// Generation 1 joins while generation 0 is still alive.
	var gen1 []*vi.Emulator
	for i := 0; i < 2; i++ {
		pos := geo.Point{X: -0.4 * float64(i+1), Y: 0.2}
		eng.Attach(pos, nil, func(env sim.Env) sim.Node {
			em := dep.NewEmulator(env, false)
			gen1 = append(gen1, em)
			return em
		})
	}
	eng.Run(4 * per)
	for _, em := range gen1 {
		if !em.Joined() {
			t.Fatal("second generation failed to join")
		}
	}

	// Generation 0 departs; hand leadership to a generation-1 device
	// (engine IDs: 0,1 = gen0; 2 = client; 3,4 = gen1).
	eng.Crash(0)
	eng.Crash(1)
	leaders[0] = 3
	eng.Run(6 * per)

	// The virtual node kept its pre-turnover state and kept counting new
	// pings after the old replicas died.
	var st counterState
	decodeTestState(t, gen1[0].StateBefore(17), &st)
	if st.Pings < 12 {
		t.Errorf("virtual node lost state or progress through turnover: %+v", st)
	}
	// Both survivors agree.
	if string(gen1[0].StateBefore(17)) != string(gen1[1].StateBefore(17)) {
		t.Error("surviving replicas diverged")
	}
}
