package experiments

import (
	"fmt"
	"sort"

	"vinfra/internal/apps"
	"vinfra/internal/cd"
	"vinfra/internal/cm"
	"vinfra/internal/geo"
	"vinfra/internal/harness"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
	"vinfra/internal/vi"
)

var e9aDesc = harness.Descriptor{
	ID:      "E9a",
	Group:   "E9",
	Title:   "E9a — geographic routing over the virtual backbone",
	Notes:   "latency grows with hop count (each hop waits for its scheduled slot); delivery via redundant relays",
	Columns: []string{"chain length", "schedule s", "delivered", "mean latency (vrounds)"},
	Grid: func(quick bool) []harness.Params {
		var grid []harness.Params
		for _, hops := range sweep(quick, []int{2, 3, 5, 8}, []int{2, 4}) {
			grid = append(grid, harness.Params{
				Label: fmt.Sprintf("hops=%d", hops),
				Ints:  map[string]int{"hops": hops, "packets": 4},
			})
		}
		return grid
	},
	Run: routingLatencyCell,
}

var e9bDesc = harness.Descriptor{
	ID:      "E9b",
	Group:   "E9",
	Title:   "E9b — mutual exclusion throughput vs clients",
	Notes:   "mutex violations must be 0; throughput bounded by client-channel contention",
	Columns: []string{"clients", "completed cycles", "cycles/100 vrounds", "mutex violations"},
	Grid: func(quick bool) []harness.Params {
		var grid []harness.Params
		for _, n := range sweep(quick, []int{1, 2, 4, 8}, []int{2, 4}) {
			grid = append(grid, harness.Params{
				Label: fmt.Sprintf("clients=%d", n),
				Ints:  map[string]int{"clients": n, "vrounds": suiteVRounds(quick) * 3},
			})
		}
		return grid
	},
	Run: lockThroughputCell,
}

func init() {
	harness.Register(e9aDesc)
	harness.Register(e9bDesc)
}

// appBed wires a deployment with an arbitrary program and fixed leaders.
func appBed(locs []geo.Point, replicasPer int, program func(vi.VNodeID) vi.Program, seed int64) (*sim.Engine, *vi.Deployment) {
	leaders := make(map[vi.VNodeID]sim.NodeID, len(locs))
	for v := range locs {
		leaders[vi.VNodeID(v)] = sim.NodeID(v * replicasPer)
	}
	dep, err := vi.NewDeployment(vi.DeploymentConfig{
		Locations: locs,
		Radii:     Radii,
		Program:   program,
		NewCM: func(v vi.VNodeID, env sim.Env) cm.Manager {
			factory, _ := cm.NewFixed(leaders[v])
			return factory(env)
		},
	})
	if err != nil {
		panic(err)
	}
	medium := radio.MustMedium(radio.Config{Radii: Radii, Detector: cd.AC{}, Seed: seed})
	eng := sim.NewEngine(medium, sim.WithSeed(seed))
	for _, loc := range locs {
		for i := 0; i < replicasPer; i++ {
			pos := geo.Point{X: loc.X + 0.3*float64(i) - 0.4, Y: loc.Y + 0.2}
			eng.Attach(pos, nil, func(env sim.Env) sim.Node {
				return dep.NewEmulator(env, true)
			})
		}
	}
	return eng, dep
}

// routingLatencyCell measures end-to-end delivery latency (in virtual
// rounds) over one virtual-node chain length — the application-level payoff
// of the infrastructure: latency grows with distance (each hop waits for
// the relay's scheduled slot), delivery stays reliable.
func routingLatencyCell(c *harness.Cell) []harness.Row {
	hops, packets := c.Params.Int("hops"), c.Params.Int("packets")
	locs := make([]geo.Point, hops)
	for i := range locs {
		locs[i] = geo.Point{X: 5 * float64(i)}
	}
	sched := vi.BuildSchedule(locs, Radii)
	eng, dep := appBed(locs, 2, apps.RoutedProgram(sched, locs), int64(hops)+c.Base())

	east := locs[len(locs)-1]
	sends := make(map[int]*vi.Message, packets)
	sendRound := make(map[string]int, packets)
	gap := 3 * sched.Len()
	for p := 0; p < packets; p++ {
		id := fmt.Sprintf("pkt-%d", p)
		vr := 2 + p*gap
		sends[vr] = apps.RouteSend(east, id, "payload")
		sendRound[id] = vr
	}
	sender := &apps.RouterClient{Sends: sends}
	receiver := &apps.RouterClient{}
	var lat harness.Series
	recvRound := make(map[string]int)
	eng.Attach(geo.Point{X: -1, Y: -1}, nil, func(env sim.Env) sim.Node {
		return dep.NewClient(env, sender)
	})
	eng.Attach(geo.Point{X: east.X + 1, Y: 1}, nil, func(env sim.Env) sim.Node {
		return dep.NewClient(env, recordingClient{inner: receiver, seen: recvRound})
	})

	total := 2 + packets*gap + 8*sched.Len()*hops
	eng.Run(total * dep.Timing().RoundsPerVRound())

	// Iterate receptions in sorted packet-ID order: map order is
	// randomized, and the mean's float summation order must be
	// deterministic for byte-identical reports.
	ids := make([]string, 0, len(recvRound))
	for id := range recvRound {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if sent, ok := sendRound[id]; ok {
			lat.AddInt(recvRound[id] - sent)
		}
	}
	return []harness.Row{{
		harness.Int(hops), harness.Int(sched.Len()),
		harness.FloatText(fmt.Sprintf("%d/%d", len(receiver.Received), packets),
			float64(len(receiver.Received))/float64(packets)),
		harness.Float(lat.Mean()),
	}}
}

// recordingClient wraps a RouterClient to record the virtual round of each
// first delivery.
type recordingClient struct {
	inner *apps.RouterClient
	seen  map[string]int
}

// Step implements vi.ClientProgram.
func (c recordingClient) Step(vround int, recv []vi.Message, collision bool) *vi.Message {
	before := len(c.inner.Received)
	out := c.inner.Step(vround, recv, collision)
	for _, p := range c.inner.Received[before:] {
		if _, ok := c.seen[p.ID]; !ok {
			c.seen[p.ID] = vround
		}
	}
	return out
}

// lockThroughputCell measures completed lock cycles per 100 virtual rounds
// for one client count — coordination throughput of a virtual-node arbiter.
func lockThroughputCell(c *harness.Cell) []harness.Row {
	n, vrounds := c.Params.Int("clients"), c.Params.Int("vrounds")
	locs := []geo.Point{{X: 0, Y: 0}}
	sched := vi.BuildSchedule(locs, Radii)
	eng, dep := appBed(locs, 3, apps.LockProgram(sched), int64(n)+c.Base())

	clients := make([]*apps.LockClient, n)
	for i := range clients {
		clients[i] = &apps.LockClient{
			Name:       fmt.Sprintf("c%02d", i),
			HoldRounds: 2,
			Cycles:     1 << 20, // effectively unbounded
		}
		angle := float64(i) / float64(n)
		pos := geo.Point{X: 1.5 * (0.5 - angle), Y: 1.2 - 2.4*angle}
		cli := clients[i]
		eng.Attach(pos, nil, func(env sim.Env) sim.Node {
			return dep.NewClient(env, cli)
		})
	}
	eng.Run(vrounds * dep.Timing().RoundsPerVRound())

	total := 0
	claimed := make(map[int]string)
	violations := 0
	for _, cli := range clients {
		total += cli.Completed()
		for _, vr := range cli.CriticalRounds {
			if other, ok := claimed[vr]; ok && other != cli.Name {
				violations++
			}
			claimed[vr] = cli.Name
		}
	}
	return []harness.Row{{
		harness.Int(n), harness.Int(total),
		harness.Float(float64(total) * 100 / float64(vrounds)), harness.Int(violations),
	}}
}
