package vi_test

import (
	"bytes"
	"testing"

	"vinfra/internal/geo"
	"vinfra/internal/sim"
	"vinfra/internal/spec"
	"vinfra/internal/vi"
)

// cacheWorld is a lossy 3x3 world in which devices move, die and arrive: a
// region jammer drops messages, a herd drags a third of the devices across
// region borders towards the corner virtual node and then lets go, a wipe
// empties the centre region, and joiners are attached mid-run: beside a
// corner virtual node, between regions (where the herd picks one up), and
// into the wiped centre, where nobody answers and the joiner resets the
// virtual node. One joiner is later teleported straight up a column into the
// region above, its X coordinate unchanged. After every radio round a hook
// encodes the engine and monitor snapshots.
type cacheWorld struct {
	*spec.World
	joiners []*vi.Emulator
	climber sim.NodeID // the joiner teleported up a column
	snaps   [][]byte
}

func newCacheWorld(t *testing.T) *cacheWorld {
	t.Helper()
	w, err := spec.Build(spec.Spec{
		Version: spec.Version, Seed: 17, VRounds: 1 << 20, Grid: spec.Grid{Cols: 3, Rows: 3},
		Devices: spec.Devices{Replicas: 3, Pingers: true},
		Faults: []spec.Fault{
			{Kind: spec.KindRegionJammer, From: 21, Period: 63, Burst: 21},
			{Kind: spec.KindHerd, From: 42, Until: 147, X: 12, Y: 0, Frac: 0.35, Step: 0.6},
			{Kind: spec.KindRegionWipe, At: 84, X: 6, Y: 6, Radius: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &cacheWorld{World: w}
	w.Eng.OnRound(func(sim.Round, []sim.Transmission, []sim.Reception) {
		c.snaps = append(c.snaps, w.Mon.Snapshot().AppendTo(w.Eng.Snapshot().AppendTo(nil)))
	})
	return c
}

// run steps n radio rounds, attaching the joiners as their virtual rounds
// begin.
func (c *cacheWorld) run(n int) {
	near := func(v int, dx, dy float64) geo.Point {
		return geo.Point{X: c.Locs[v].X + dx, Y: c.Locs[v].Y + dy}
	}
	for ; n > 0; n-- {
		switch int(c.Eng.Round()) {
		case 2 * c.RoundsPerVRound():
			c.joiners = append(c.joiners,
				c.AttachReplica(near(0, 0.4, -0.3), false, nil),
				c.AttachReplica(near(8, -0.6, 0.2), false, nil),
				c.AttachReplica(geo.Point{X: 3, Y: 3}, false, nil),
				c.AttachReplica(near(3, 0.5, 0.3), false, nil))
			c.climber = sim.NodeID(c.Eng.NumNodes() - 1)
		case 8 * c.RoundsPerVRound(): // the herd has let go
			c.joiners = append(c.joiners,
				c.AttachReplica(near(4, 0.3, 0.5), false, nil),
				c.AttachReplica(geo.Point{X: 9, Y: 9}, false, nil))
		case 11*c.RoundsPerVRound() + 3:
			at := c.Eng.Position(c.climber)
			c.Eng.SetPosition(c.climber, geo.Point{X: at.X, Y: at.Y + c.Spec.Grid.Spacing})
		}
		c.Eng.Step()
	}
}

// TestEmulatorCachesMatchRecompute holds the emulator's caches — region, the
// shared step and broadcast, the estimate's reuse and the steady close — to
// the emulator that works them all out afresh on every call (vi.SetNoCache):
// the same world stepped both ways must encode to
// the same engine and monitor snapshots after every radio round, through
// loss, herding, a wipe, joins and a reset — and after an in-place
// RestoreState, in the middle of a virtual round, that makes a stepped
// emulator a replica of the virtual node a snapshot taken in another region
// served: at the start of the next virtual round it must look its region
// up rather than trust the lookup it made before.
func TestEmulatorCachesMatchRecompute(t *testing.T) {
	defer vi.SetNoCache(false)
	cached, fresh := newCacheWorld(t), newCacheWorld(t)
	per := cached.RoundsPerVRound()
	step := func(n int) {
		t.Helper()
		vi.SetNoCache(true)
		fresh.run(n)
		vi.SetNoCache(false)
		cached.run(n)
		if len(cached.snaps) != n || len(fresh.snaps) != n {
			t.Fatalf("%d radio rounds made %d and %d snapshots", n, len(cached.snaps), len(fresh.snaps))
		}
		for i := range cached.snaps {
			if !bytes.Equal(cached.snaps[i], fresh.snaps[i]) {
				t.Fatalf("after radio round %d the snapshots differ from the run that recomputes", int(cached.Eng.Round())-n+i)
			}
		}
		cached.snaps, fresh.snaps = nil, nil
	}
	for i := 0; i < 14; i++ {
		step(per)
	}
	if cached.Joins() == 0 || cached.Resets() == 0 {
		t.Fatalf("%d joins and %d resets: the world did not exercise join-ack and reset", cached.Joins(), cached.Resets())
	}
	if got, want := cached.joiners[3].VNode(), cached.Dep.RegionOf(cached.Eng.Position(cached.climber)); got != want || got == 3 {
		t.Fatalf("the teleported joiner serves virtual node %d, want %d, the one above virtual node 3", got, want)
	}

	// The herd let go at radio round 147, so every joiner has stood still
	// since its last region lookup. Pick one joined in a region and one
	// joined in another.
	a, b := -1, -1
	for i, em := range cached.joiners {
		switch {
		case !em.Joined():
		case a < 0:
			a = i
		case b < 0 && em.VNode() != cached.joiners[a].VNode():
			b = i
		}
	}
	if a < 0 || b < 0 {
		t.Fatal("no two joined joiners in different regions")
	}
	home, away := cached.joiners[a].VNode(), cached.joiners[b].VNode()
	// Lay b's snapshot over a, in place and in both worlds alike, right after
	// the client phase of a virtual round that schedules b's virtual node:
	// a has looked up whether its own is scheduled by then.
	for !cached.Dep.Schedule().ScheduledIn(away, int(cached.Eng.Round())/per) {
		step(per)
	}
	step(1)
	for _, w := range []*cacheWorld{cached, fresh} {
		if err := w.joiners[a].RestoreState(w.joiners[b].AppendState(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if got := cached.joiners[a].VNode(); got != away {
		t.Fatalf("the restore left the emulator serving virtual node %d, want %d", got, away)
	}
	for i := 0; i < 4; i++ {
		step(per)
	}
	if got := cached.joiners[a].VNode(); got != home {
		t.Errorf("after the restore the emulator serves virtual node %d, want %d, the region it stands in", got, home)
	}
}
