package cha_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/cha"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
)

// TestRecorderMatchesOracle runs E4's full campaign shape — r_cf ∈ {30, 90,
// 180} × 30 seeds, 3–7 nodes, an eventually accurate detector with false
// positives under random loss and spurious collisions until r_cf — with
// checkpointing off and on, and holds the windowed Recorder to the map
// oracle that saw the same proposals and outputs, report for report, at
// every quarter of the run.
func TestRecorderMatchesOracle(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		for _, rcf := range []sim.Round{30, 90, 180} {
			for s := 0; s < 30; s++ {
				seed := int64(s*97 + 13)
				p := 0.2 + 0.1*float64(s%6)
				oracle := cha.NewMapRecorder()
				c := newCluster(t, clusterOpts{
					n:          3 + s%5,
					detector:   cd.EventuallyAC{Racc: rcf, FalsePositiveRate: p / 2},
					adversary:  radio.NewRandomLoss(p, p/2, rcf, seed*7),
					seed:       seed,
					checkpoint: checkpoint,
					oracle:     oracle,
				})
				quarter := (int(rcf)/cha.RoundsPerInstance + 50) / 4
				for q := 1; q <= 4; q++ {
					c.runInstances(quarter)
					if got, want := c.rec.Report(), oracle.Report(); got != want {
						t.Fatalf("checkpoint %v, r_cf %d, seed %d, quarter %d:\n window %+v\n oracle %+v",
							checkpoint, rcf, seed, q, got, want)
					}
				}
			}
		}
	}
}

// TestRecorderWindowIsBounded is the counted gate on the Recorder's state:
// watching a checkpointed 5-replica cluster it holds as many positions after
// 2 000 instances as after 250, and at most 4, as Core does — also when a
// replica crashed at instance 100, whose floor stops there; without
// checkpointing it holds what a replica's Core holds.
func TestRecorderWindowIsBounded(t *testing.T) {
	run := func(instances int, checkpoint bool, crashAt int) *cluster {
		c := newCluster(t, clusterOpts{n: 5, checkpoint: checkpoint})
		if crashAt > 0 {
			c.runInstances(crashAt)
			c.eng.Crash(c.ids[4])
			c.rec.MarkCrashed(c.ids[4])
		}
		c.runInstances(instances - crashAt)
		rep := c.rec.Report()
		requireClean(t, rep)
		if !rep.LivenessOK || rep.Instances != cha.Instance(instances) {
			t.Fatalf("%d instances: report %+v", instances, rep)
		}
		return c
	}
	short, long := run(250, true, 0).rec.Retained(), run(2000, true, 0).rec.Retained()
	crashed := run(2000, true, 100).rec.Retained()
	t.Logf("retained positions, checkpointed: %d after 250 instances, %d after 2000, %d after a crash", short, long, crashed)
	if short != long || long > 4 || crashed != long {
		t.Errorf("retained %d positions after 250 instances, %d after 2000 and %d after a crash; want equal and at most 4",
			short, long, crashed)
	}
	c := run(250, false, 0)
	if got, want := c.rec.Retained(), c.replicas[0].Core().Retained(); got != want {
		t.Errorf("without checkpointing the window holds %d positions, the core %d entries", got, want)
	}
}

// TestRecorderCountsFollowArrivalOrder pins what a violation counts:
// (output, position) pairs against the first history that covered the
// position, so the count depends on the order outputs arrive in.
func TestRecorderCountsFollowArrivalOrder(t *testing.T) {
	v := cha.NewHistory(1, map[cha.Instance]cha.Value{1: cha.V("v")})
	bot := cha.NewHistory(1, nil)
	count := func(hs ...*cha.History) int {
		rec := cha.NewRecorder()
		rec.WrapPropose(func(cha.Instance) cha.Value { return cha.V("v") })(1)
		for i, h := range hs {
			rec.Record(sim.NodeID(i), cha.NewOutput(1, cha.Green, 0, h))
		}
		return rec.Report().AgreementViolations
	}
	if got := count(v, bot, bot); got != 2 {
		t.Errorf("v, ⊥, ⊥: %d agreement violations, want 2", got)
	}
	if got := count(bot, v, bot); got != 1 {
		t.Errorf("⊥, v, ⊥: %d agreement violations, want 1", got)
	}
}

// TestRecorderConcurrentNodes records four checkpointing nodes from four
// goroutines at once, as the engine's parallel path may: agreeing histories
// count no violation in any arrival order, every instance is decided, and
// the window ends at the two positions above the common floor.
func TestRecorderConcurrentNodes(t *testing.T) {
	const nodes, instances = 4, 300
	rec := cha.NewRecorder()
	propose := rec.WrapPropose(func(k cha.Instance) cha.Value { return cha.V(fmt.Sprint(k)) })
	var wg sync.WaitGroup
	for i := range nodes {
		record := rec.OutputFunc(sim.NodeID(i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := cha.Instance(1); k <= instances; k++ {
				propose(k)
				h := cha.NewHistory(k, map[cha.Instance]cha.Value{k - 1: cha.V(fmt.Sprint(k - 1)), k: cha.V(fmt.Sprint(k))})
				record(cha.NewOutput(k, cha.Green, max(k-2, 0), h))
			}
		}()
	}
	wg.Wait()
	rep := rec.Report()
	requireClean(t, rep)
	if !rep.LivenessOK || rep.Stabilization != 1 || rep.DecidedRate != 1 {
		t.Errorf("report %+v, want every instance decided from 1", rep)
	}
	if got := rec.Retained(); got != 2 {
		t.Errorf("window holds %d positions, want 2", got)
	}
}

// TestRecorderMatchesOracleOnRandomStreams feeds random synthetic streams
// through FuzzRecorderMatchesOracle's body.
func TestRecorderMatchesOracleOnRandomStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 4000 {
		data := make([]byte, rng.Intn(400))
		rng.Read(data)
		streamMatchesOracle(t, data)
	}
}

// FuzzRecorderMatchesOracle decodes bytes into a stream of proposals,
// outputs and crashes that keeps the Recorder's input contract — every node
// registered first, each node's outputs in increasing instance order
// (instances may be skipped) with floors below the instance that never
// fall, nothing from a crashed node — over ⊥s, disagreeing and forged
// values, and requires the windowed Recorder and the map oracle to report
// the same after every few events and at the end, the window then holding
// exactly the positions above the lowest floor among the live nodes.
func FuzzRecorderMatchesOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 0, 2, 0, 3, 0, 0, 0, 3, 0, 3, 7})
	f.Add([]byte("\x04\x12\x00\x22\x31\x00\x05\x14\x02\x01\x01\x09\x07\x21\x11\x33\x47\x01"))
	f.Fuzz(streamMatchesOracle)
}

func streamMatchesOracle(t *testing.T, data []byte) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	// value is one of a few candidates for position k: mostly the one the
	// proposals favour, sometimes another, sometimes one nobody proposes.
	value := func(k cha.Instance, b int) cha.Value {
		return cha.V(fmt.Sprintf("%s-%d", []string{"v", "v", "w", "forged"}[b%4], k))
	}
	rec, oracle := cha.NewRecorder(), cha.NewMapRecorder()
	var proposal cha.Value
	proposeRec := rec.WrapPropose(func(cha.Instance) cha.Value { return proposal })
	proposeOracle := oracle.WrapPropose(func(cha.Instance) cha.Value { return proposal })

	type node struct {
		last, floor     cha.Instance
		crashed         bool
		record, oracled func(cha.Output)
	}
	nodes := make([]node, 1+next()%6)
	for i := range nodes {
		nodes[i].record = rec.OutputFunc(sim.NodeID(i))
		nodes[i].oracled = oracle.OutputFunc(sim.NodeID(i))
	}
	var top cha.Instance // the highest position proposed or output
	check := func(at string) {
		t.Helper()
		if got, want := rec.Report(), oracle.Report(); got != want {
			t.Fatalf("%s:\n window %+v\n oracle %+v", at, got, want)
		}
		lo, live := cha.Instance(0), false
		for _, n := range nodes {
			if !n.crashed && (!live || n.floor < lo) {
				lo, live = n.floor, true
			}
		}
		if live && rec.Retained() != int(max(top, lo)-lo) {
			t.Fatalf("%s: window holds %d positions, want %d above floor %d", at, rec.Retained(), max(top, lo)-lo, lo)
		}
	}
	for step := 0; len(data) > 0; step++ {
		op := next()
		id := sim.NodeID((op >> 4) % len(nodes))
		n := &nodes[id]
		switch op % 16 {
		case 0, 1: // a proposal for one of the node's next instances
			k := n.last + 1 + cha.Instance(next()%3)
			proposal = value(k, next()%3)
			top = max(top, k)
			proposeRec(k)
			proposeOracle(k)
		case 2: // one time in four, a crash
			if next()%4 == 0 && !n.crashed {
				n.crashed = true
				rec.MarkCrashed(id)
				oracle.MarkCrashed(id)
			}
		case 3:
			check(fmt.Sprintf("step %d", step))
		default:
			if n.crashed {
				continue
			}
			k := n.last + 1 + cha.Instance(next()%3)
			n.floor = min(n.floor+cha.Instance(next()%4), k-1)
			color := cha.Color(1 + next()%4)
			var h *cha.History
			if next()%3 != 0 {
				vals := make(map[cha.Instance]cha.Value)
				for pos := n.floor + 1; pos <= k; pos++ {
					if b := next(); b%5 != 0 {
						vals[pos] = value(pos, b)
					}
				}
				h = cha.NewHistory(k, vals)
			}
			o := cha.NewOutput(k, color, n.floor, h)
			n.last, top = k, max(top, k)
			n.record(o)
			n.oracled(o)
		}
	}
	check("end")
}
