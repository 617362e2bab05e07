package faults

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

// The oracles: the four engine faults' Strike bodies as they were when a
// fault found its candidates by walking 0..NumNodes() and asking Alive of
// every id ever attached (ChurnStorm sorting all of them to take the first
// Kills), moved here verbatim but for the receiver becoming a parameter. The
// faults now walk Control.AliveIDs; they must pick the same victims in the
// same order.

func oracleRegionWipe(w RegionWipe, r sim.Round, ctl sim.Control) {
	if r != w.At {
		return
	}
	for id := 0; id < ctl.NumNodes(); id++ {
		nid := sim.NodeID(id)
		if ctl.Alive(nid) && ctl.Position(nid).Within(w.Center, w.Radius) {
			ctl.Crash(nid)
		}
	}
}

func oracleCrashBurst(b *CrashBurst, r sim.Round, ctl sim.Control) {
	if !b.Active(r) || b.P <= 0 {
		return
	}
	cycle, phase := b.cycleAt(r, b.Period)
	if phase != 0 {
		return
	}
	for id := 0; id < ctl.NumNodes(); id++ {
		nid := sim.NodeID(id)
		if !ctl.Alive(nid) || (b.Eligible != nil && !b.Eligible(nid)) {
			continue
		}
		if u01(hashKeys(b.Seed, cycle, int64(id))) < b.P {
			ctl.Crash(nid)
		}
	}
}

func oracleChurnStorm(s *ChurnStorm, r sim.Round, ctl sim.Control) {
	if !s.Active(r) || s.Kills <= 0 {
		return
	}
	cycle, phase := s.cycleAt(r, s.Period)
	if phase != 0 {
		return
	}
	// Rank the candidates by hash (ties by id — distinct ids give distinct
	// hashes virtually always, but the order must be total) and take the
	// smallest. NumNodes is read once: respawned nodes join next cycle's
	// candidate pool, not this one's.
	type victim struct {
		h  uint64
		id sim.NodeID
	}
	var cands []victim
	n := ctl.NumNodes()
	for id := 0; id < n; id++ {
		nid := sim.NodeID(id)
		if !ctl.Alive(nid) || (s.Eligible != nil && !s.Eligible(nid)) {
			continue
		}
		cands = append(cands, victim{h: hashKeys(s.Seed, cycle, int64(id)), id: nid})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].h != cands[b].h {
			return cands[a].h < cands[b].h
		}
		return cands[a].id < cands[b].id
	})
	if len(cands) > s.Kills {
		cands = cands[:s.Kills]
	}
	for _, v := range cands {
		at := ctl.Position(v.id)
		ctl.Crash(v.id)
		if s.Respawn != nil {
			s.Respawn(v.id, at)
		}
	}
}

func oracleHerd(h *Herd, r sim.Round, ctl sim.Control) {
	if !h.Active(r) || h.Frac <= 0 || h.Step <= 0 {
		return
	}
	for id := 0; id < ctl.NumNodes(); id++ {
		nid := sim.NodeID(id)
		if !ctl.Alive(nid) || (h.Eligible != nil && !h.Eligible(nid)) {
			continue
		}
		// Membership is keyed by node only: the same cohort is dragged
		// every round, the worst case for the regions it abandons.
		if u01(hashKeys(h.Seed, int64(id))) >= h.Frac {
			continue
		}
		pos := ctl.Position(nid)
		d := h.Focus.Sub(pos)
		if l := d.Len(); l <= h.Step {
			ctl.SetPosition(nid, h.Focus)
		} else {
			ctl.SetPosition(nid, pos.Add(d.Unit().Scale(h.Step)))
		}
	}
}

// oracle wraps a fault in its old Strike body.
func oracle(f sim.Fault) sim.Fault {
	switch f := f.(type) {
	case RegionWipe:
		return strikeFunc(func(r sim.Round, ctl sim.Control) { oracleRegionWipe(f, r, ctl) })
	case *CrashBurst:
		return strikeFunc(func(r sim.Round, ctl sim.Control) { oracleCrashBurst(f, r, ctl) })
	case *ChurnStorm:
		return strikeFunc(func(r sim.Round, ctl sim.Control) { oracleChurnStorm(f, r, ctl) })
	case *Herd:
		return strikeFunc(func(r sim.Round, ctl sim.Control) { oracleHerd(f, r, ctl) })
	}
	panic("no oracle for this fault")
}

// deed is one thing a fault did to the world: a crash, a relocation ('m'),
// or a Respawn call with the victim's last position.
type deed struct {
	op byte
	id sim.NodeID
	at geo.Point
}

// witness hands a fault a Control that writes down every Crash and
// SetPosition before passing it on.
type witness struct {
	sim.Fault
	log *[]deed
}

func (w witness) Strike(r sim.Round, ctl sim.Control) {
	w.Fault.Strike(r, witnessCtl{ctl, w.log})
}

type witnessCtl struct {
	sim.Control
	log *[]deed
}

func (c witnessCtl) Crash(id sim.NodeID) {
	*c.log = append(*c.log, deed{'c', id, c.Position(id)})
	c.Control.Crash(id)
}

func (c witnessCtl) SetPosition(id sim.NodeID, p geo.Point) {
	*c.log = append(*c.log, deed{'m', id, p})
	c.Control.SetPosition(id, p)
}

// dozer sleeps a few rounds after every round it is up for, on a phase of
// its own: at any time most dozers are off the awake list, and on the alive
// list all the same.
type dozer struct{ env sim.Env }

func (dozer) Transmit(sim.Round) sim.Message { return nil }

func (d dozer) Receive(r sim.Round, _ sim.Reception) {
	d.env.SleepUntil(r + 1 + sim.Round((int(d.env.ID())+int(r))%5))
}

// hostileRig is eighty devices on a line, every third a dozer, three dead
// before the first round, under all four engine faults composed into one
// Strike: a herd dragging a cohort to a focus, a storm front every other
// round whose Respawn attaches a replacement on the spot — in the middle of
// the composite's Strike — two region wipes, and bursts that run last, over
// nodes the storm has just killed (still on the engine's alive list, which
// is compacted after the faults) and nodes it has just attached. with makes
// each fault what is registered: itself, or its oracle.
func hostileRig(seed int64, with func(sim.Fault) sim.Fault) (*sim.Engine, *[]deed) {
	e := sim.NewEngine(&nullMedium{}, sim.WithSeed(seed))
	build := func(env sim.Env) sim.Node {
		if env.ID()%3 == 0 {
			return dozer{env}
		}
		return idleNode{}
	}
	for i := 0; i < 80; i++ {
		e.Attach(geo.Point{X: float64(i)}, nil, build)
	}
	for _, id := range []sim.NodeID{3, 10, 11} {
		e.Crash(id)
	}
	log := new([]deed)
	storm := &ChurnStorm{
		Window: Window{From: 2}, Period: 2, Kills: 3, Seed: seed + 2,
		Eligible: func(id sim.NodeID) bool { return id%5 != 0 },
	}
	storm.Respawn = func(victim sim.NodeID, at geo.Point) {
		*log = append(*log, deed{'r', victim, at})
		e.Attach(geo.Point{X: at.X + 0.3, Y: at.Y - 0.2}, nil, build)
		if victim%7 == 0 { // the bursts and wipes take more than the storm gives back
			e.Attach(geo.Point{X: at.X - 0.3, Y: at.Y + 0.2}, nil, build)
		}
	}
	focus := geo.Point{X: 40, Y: 5}
	e.AddFault(witness{Faults{
		with(&Herd{Focus: focus, Frac: 0.4, Step: 0.05, Seed: seed,
			Eligible: func(id sim.NodeID) bool { return id%4 != 2 }}),
		with(storm),
		with(RegionWipe{Center: geo.Point{X: 20}, Radius: 2.5, At: 37}),
		with(RegionWipe{Center: focus, Radius: 2, At: 350}),
		with(&CrashBurst{Period: 6, P: 0.02, Seed: seed + 1,
			Eligible: func(id sim.NodeID) bool { return id%3 != 1 }}),
	}, log})
	return e, log
}

// TestFaultsMatchNumNodesWalk holds the faults to their oracles: over fifty
// seeds and two hundred storm cycles each, on an engine with dead nodes,
// sleepers, Eligible filters, nodes crashed earlier in the same Strike and a
// Respawn that attaches in the middle of it, the AliveIDs walks crash the
// same ids in the same order, move the same nodes to the same places and
// call Respawn with the same (victim, at) sequence as the NumNodes walks did
// — and leave the same engine behind.
func TestFaultsMatchNumNodesWalk(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		e, got := hostileRig(seed, func(f sim.Fault) sim.Fault { return f })
		o, want := hostileRig(seed, oracle)
		for r := 0; r < 400; r++ {
			from := len(*got)
			e.Step()
			o.Step()
			if len(*want) < from || !reflect.DeepEqual((*got)[from:], (*want)[from:]) {
				t.Fatalf("seed %d, round %d: the faults did\n%v\nand their oracles\n%v", seed, r, (*got)[from:], (*want)[from:])
			}
		}
		if !bytes.Equal(e.Snapshot().AppendTo(nil), o.Snapshot().AppendTo(nil)) {
			t.Fatalf("seed %d: the engines differ after 400 rounds of identical deeds", seed)
		}
		ops := map[byte]int{}
		for _, d := range *got {
			ops[d.op]++
		}
		if ops['r'] < 300 || ops['c'] < ops['r']+20 || ops['m'] < 4000 || e.AliveCount() < 20 {
			t.Fatalf("seed %d: %d respawns, %d crashes, %d moves, %d alive of %d: the rig did not exercise every fault",
				seed, ops['r'], ops['c'], ops['m'], e.AliveCount(), e.NumNodes())
		}
	}
}

// countingCtl counts the per-node questions a fault asks of the engine.
type countingCtl struct {
	sim.Control
	asked *int
}

func (c countingCtl) Alive(id sim.NodeID) bool         { *c.asked++; return c.Control.Alive(id) }
func (c countingCtl) Position(id sim.NodeID) geo.Point { *c.asked++; return c.Control.Position(id) }

// TestFaultsVisitWhatIsAlive: on a world of 196 devices alive among 5 000
// ever attached — the storm soak a few thousand virtual rounds in — a strike
// asks about the 196, not the 5 000: a storm front makes at most one
// Alive/Position/Eligible call per alive node plus one per kill, and after
// its first allocates nothing.
func TestFaultsVisitWhatIsAlive(t *testing.T) {
	const attached, alive, kills = 5000, 196, 2
	e := newRig(attached)
	for id := 0; id < attached; id++ {
		if id%25 != 0 || id >= 25*alive {
			e.Crash(sim.NodeID(id))
		}
	}
	e.Run(1)
	if e.AliveCount() != alive {
		t.Fatalf("%d alive, want %d", e.AliveCount(), alive)
	}
	asked := 0
	eligible := func(id sim.NodeID) bool { asked++; return id%50 != 0 }
	ctl := countingCtl{e, &asked}
	storm := &ChurnStorm{Period: 1, Kills: kills, Seed: 5, Eligible: eligible}
	for _, tc := range []struct {
		name  string
		fault sim.Fault
		limit int
	}{
		{"ChurnStorm", storm, alive + kills},
		{"CrashBurst", &CrashBurst{P: 0.01, Seed: 6, Eligible: eligible}, alive},
		{"RegionWipe", RegionWipe{Center: geo.Point{X: 100}, Radius: 30}, alive},
		{"Herd", &Herd{Focus: geo.Point{X: 100}, Frac: 0.5, Step: 1, Seed: 7, Eligible: eligible}, 2 * alive},
	} {
		asked = 0
		tc.fault.Strike(0, ctl)
		if asked == 0 || asked > tc.limit {
			t.Errorf("%s: %d Alive/Position/Eligible calls on %d alive of %d attached, want at most %d", tc.name, asked, alive, attached, tc.limit)
		}
	}
	if e.AliveCount() > alive-kills {
		t.Fatalf("%d alive after a storm front, a burst and a wipe", e.AliveCount())
	}
	r := sim.Round(0)
	if allocs := testing.AllocsPerRun(20, func() { r++; storm.Strike(r, e) }); allocs != 0 {
		t.Errorf("a storm front after the first allocates %.1f times, want 0", allocs)
	}
}
