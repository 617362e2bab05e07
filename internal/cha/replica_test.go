package cha_test

import (
	"fmt"
	"math"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/cha"
	"vinfra/internal/cm"
	"vinfra/internal/geo"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
)

var (
	testRadii = geo.Radii{R1: 10, R2: 20}
)

// ringPositions places n nodes evenly on a circle of radius r around the
// CHA location (all within R1/2 of it, per Section 3.2's setting).
func ringPositions(n int, r float64) []geo.Point {
	pts := make([]geo.Point, n)
	for i := range pts {
		angle := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = geo.Point{X: r * math.Cos(angle), Y: r * math.Sin(angle)}
	}
	return pts
}

type clusterOpts struct {
	n          int
	detector   cd.Detector
	adversary  radio.Adversary
	cmFactory  cm.Factory
	seed       int64
	checkpoint bool
}

type cluster struct {
	eng      *sim.Engine
	rec      *cha.Recorder
	replicas []*cha.Replica
	ids      []sim.NodeID
}

func newCluster(t *testing.T, o clusterOpts) *cluster {
	t.Helper()
	if o.detector == nil {
		o.detector = cd.AC{}
	}
	if o.seed == 0 {
		o.seed = 1
	}
	medium, err := radio.NewMedium(radio.Config{
		Radii:     testRadii,
		Detector:  o.detector,
		Adversary: o.adversary,
		Seed:      o.seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{
		eng: sim.NewEngine(medium, sim.WithSeed(o.seed)),
		rec: cha.NewRecorder(),
	}
	for i, pos := range ringPositions(o.n, 2) {
		i := i
		id := c.eng.Attach(pos, nil, func(env sim.Env) sim.Node {
			rep := cha.NewReplica(env, cha.Config{
				Propose: c.rec.WrapPropose(func(k cha.Instance) cha.Value {
					return cha.V(fmt.Sprintf("n%02d-%06d", i, k))
				}),
				CM:         o.cmFactory(env),
				OnOutput:   c.rec.OutputFunc(env.ID()),
				Checkpoint: o.checkpoint,
			})
			c.replicas = append(c.replicas, rep)
			return rep
		})
		c.ids = append(c.ids, id)
	}
	return c
}

func (c *cluster) runInstances(n int) {
	c.eng.Run(n * cha.RoundsPerInstance)
}

func requireClean(t *testing.T, rep cha.Report) {
	t.Helper()
	if v := rep.Violations(); v != "" {
		t.Fatalf("CHA guarantees violated: %s", v)
	}
}

func TestSingleNodeAllGreen(t *testing.T) {
	factory, _ := cm.NewFixed(0)
	c := newCluster(t, clusterOpts{n: 1, cmFactory: factory})
	c.runInstances(10)
	rep := c.rec.Report()
	requireClean(t, rep)
	if rep.Stabilization != 1 {
		t.Errorf("stabilization = %d, want 1", rep.Stabilization)
	}
	if rep.DecidedRate != 1 {
		t.Errorf("decided rate = %v, want 1 (every instance green)", rep.DecidedRate)
	}
}

func TestStableClusterAllDecide(t *testing.T) {
	factory, _ := cm.NewFixed(0)
	c := newCluster(t, clusterOpts{n: 5, cmFactory: factory})
	c.runInstances(20)
	rep := c.rec.Report()
	requireClean(t, rep)
	if rep.Stabilization != 1 {
		t.Errorf("stabilization = %d, want 1 on a clean channel", rep.Stabilization)
	}
	if rep.DecidedRate != 1 {
		t.Errorf("decided rate = %v, want 1", rep.DecidedRate)
	}
	// Every replica's final history chain covers all 20 instances.
	for i, rep := range c.replicas {
		h := rep.Core().CalculateHistory()
		if h.Len() != 20 {
			t.Errorf("replica %d: history covers %d instances, want 20", i, h.Len())
		}
	}
	for _, rep := range c.replicas {
		if rep.Core().BrokenChains != 0 {
			t.Error("broken history chain on a clean channel")
		}
	}
}

func TestAdversarialPhaseThenStability(t *testing.T) {
	// Arbitrary loss and spurious collisions before r_cf = 60; eventual
	// accuracy from r_acc = 60. Safety must hold throughout; liveness must
	// hold after stabilization (Theorems 10, 12, 13; Property 4).
	const rcf = 60
	factory, _ := cm.NewFixed(0)
	c := newCluster(t, clusterOpts{
		n:         4,
		cmFactory: factory,
		detector:  cd.EventuallyAC{Racc: rcf, FalsePositiveRate: 0.2},
		adversary: radio.NewRandomLoss(0.4, 0.2, rcf, 99),
		seed:      7,
	})
	c.runInstances(100)
	rep := c.rec.Report()
	requireClean(t, rep)
	if !rep.LivenessOK {
		t.Fatal("no stabilization")
	}
	maxStab := cha.Instance(rcf/cha.RoundsPerInstance + 2)
	if rep.Stabilization > maxStab {
		t.Errorf("stabilization = %d, want <= %d", rep.Stabilization, maxStab)
	}
	for i, r := range c.replicas {
		if r.Core().BrokenChains != 0 {
			t.Errorf("replica %d: %d broken chains under complete detection", i, r.Core().BrokenChains)
		}
	}
}

func TestManySeedsSafetyNeverViolated(t *testing.T) {
	// Safety is unconditional: whatever the adversary does (even forever),
	// agreement, validity and the color invariant must hold.
	for seed := int64(1); seed <= 15; seed++ {
		factory, _ := cm.NewFixed(0)
		c := newCluster(t, clusterOpts{
			n:         3 + int(seed%4),
			cmFactory: factory,
			detector:  cd.EventuallyAC{Racc: cd.Never, FalsePositiveRate: 0.15},
			adversary: radio.NewRandomLoss(0.5, 0.25, cd.Never, seed*31),
			seed:      seed,
		})
		c.runInstances(40)
		rep := c.rec.Report()
		if rep.AgreementViolations > 0 || rep.ValidityViolations > 0 || rep.ColorSpreadViolations > 0 {
			t.Errorf("seed %d: %s", seed, rep.Violations())
		}
	}
}

func TestLeaderCrashWithBackoffReelection(t *testing.T) {
	c := newCluster(t, clusterOpts{
		n:         5,
		cmFactory: cm.NewBackoff(cm.BackoffConfig{}),
		seed:      3,
	})
	// Let the election settle and the protocol run.
	c.runInstances(80)
	// Crash an arbitrary node (whoever it is, the system must re-stabilize;
	// if it was the leader, backoff re-elects).
	c.eng.Crash(c.ids[0])
	c.rec.MarkCrashed(c.ids[0])
	c.runInstances(200)
	rep := c.rec.Report()
	requireClean(t, rep)
	if !rep.LivenessOK {
		t.Fatal("liveness lost after crash")
	}
}

func TestCrashAllButOne(t *testing.T) {
	// CHA requires only one correct node (Section 3.2).
	factory, setLeader := cm.NewFixed(0)
	c := newCluster(t, clusterOpts{n: 4, cmFactory: factory})
	c.runInstances(10)
	for _, id := range c.ids[:3] {
		c.eng.Crash(id)
		c.rec.MarkCrashed(id)
	}
	setLeader(c.ids[3])
	c.runInstances(30)
	rep := c.rec.Report()
	requireClean(t, rep)
	if !rep.LivenessOK {
		t.Fatal("lone survivor should keep deciding")
	}
}

func TestFootnote2ConsistencyAfterDeciderCrashes(t *testing.T) {
	// Footnote 2: node p_i outputs a decision and fails; p_j (which output
	// ⊥ for that instance) must behave consistently with the unknown
	// decision. We force p_j yellow at instance 1 via a spurious collision
	// in its veto-2 round, crash the leader, and check p_j's later
	// histories include instance 1 with the decided value.
	script := &radio.Script{}
	script.Collide(2, 1) // round 2 = veto-2 of instance 1, at node 1
	factory, setLeader := cm.NewFixed(0)
	c := newCluster(t, clusterOpts{
		n:         2,
		cmFactory: factory,
		detector:  cd.EventuallyAC{Racc: 3},
		adversary: script,
	})

	c.runInstances(1)

	// Leader (node 0) decided instance 1; node 1 is yellow.
	if got := c.replicas[0].Core().Status(1); got != cha.Green {
		t.Fatalf("leader status = %v, want green", got)
	}
	if got := c.replicas[1].Core().Status(1); got != cha.Yellow {
		t.Fatalf("observer status = %v, want yellow", got)
	}
	h0 := c.replicas[0].Core().CalculateHistory()
	v0, ok := h0.At(1)
	if !ok {
		t.Fatal("leader history must include instance 1")
	}

	c.eng.Crash(c.ids[0])
	c.rec.MarkCrashed(c.ids[0])
	setLeader(c.ids[1])
	c.runInstances(5)

	h1 := c.replicas[1].Core().CalculateHistory()
	v1, ok := h1.At(1)
	if !ok {
		t.Fatal("survivor's history must include instance 1 (it was good there)")
	}
	if !v1.Equal(v0) {
		t.Fatalf("survivor decided %q for instance 1, dead leader had %q", v1, v0)
	}
	requireClean(t, c.rec.Report())
}

func TestCheckpointReplicasConverge(t *testing.T) {
	factory, _ := cm.NewFixed(0)
	c := newCluster(t, clusterOpts{n: 3, cmFactory: factory, checkpoint: true})
	c.runInstances(50)
	requireClean(t, c.rec.Report())

	first := c.replicas[0].Checkpoint()
	if first.UpTo != 50 {
		t.Errorf("checkpoint UpTo = %d, want 50", first.UpTo)
	}
	for i, r := range c.replicas[1:] {
		if got := r.Checkpoint(); got != first {
			t.Errorf("replica %d checkpoint %+v != replica 0 %+v", i+1, got, first)
		}
	}
	for i, r := range c.replicas {
		if got := r.Core().Retained(); got > 4 {
			t.Errorf("replica %d retains %d entries despite checkpointing", i, got)
		}
	}
}

func TestCheckpointMatchesPlainHistoryDigest(t *testing.T) {
	// A checkpointing replica and a plain replica in the same cluster must
	// fold to the same digest.
	factory, _ := cm.NewFixed(0)
	medium := radio.MustMedium(radio.Config{Radii: testRadii, Detector: cd.AC{}})
	eng := sim.NewEngine(medium)
	var plain, ckpt *cha.Replica
	propose := func(k cha.Instance) cha.Value { return cha.V(fmt.Sprintf("%06d", k)) }
	eng.Attach(geo.Point{X: 1}, nil, func(env sim.Env) sim.Node {
		plain = cha.NewReplica(env, cha.Config{Propose: propose, CM: factory(env)})
		return plain
	})
	eng.Attach(geo.Point{X: -1}, nil, func(env sim.Env) sim.Node {
		ckpt = cha.NewReplica(env, cha.Config{Propose: propose, CM: factory(env), Checkpoint: true})
		return ckpt
	})
	eng.Run(30 * cha.RoundsPerInstance)

	h := plain.Core().CalculateHistory()
	want := h.DigestRange(1, ckpt.Checkpoint().UpTo, 0)
	if got := ckpt.Checkpoint().Digest; got != want {
		t.Errorf("checkpoint digest %x != plain history digest %x", got, want)
	}
}

func TestConstantMessageSize(t *testing.T) {
	// Theorem 14: message size is constant, independent of execution
	// length. Compare the maximum message size of a short and a long run.
	maxSize := func(instances int) int {
		factory, _ := cm.NewFixed(0)
		c := newCluster(t, clusterOpts{n: 4, cmFactory: factory})
		c.runInstances(instances)
		return c.eng.Stats().MaxMessageSize
	}
	short, long := maxSize(5), maxSize(500)
	if short != long {
		t.Errorf("message size grew with execution length: %d -> %d", short, long)
	}
	// Length-prefixed 10-byte fixed-width value + 8-byte prev pointer.
	if long > 19 {
		t.Errorf("max message size = %d, want <= 19", long)
	}
}

func TestNullDetectorBreaksTheProtocol(t *testing.T) {
	// Ablation: without completeness (Null detector), lost vetoes go
	// unnoticed and the protocol's invariants collapse — the paper's
	// citation of [7,8] that consensus is impossible without collision
	// detection. We look for any seed demonstrating a violation.
	demonstrated := false
	for seed := int64(1); seed <= 20 && !demonstrated; seed++ {
		factory, _ := cm.NewFixed(0)
		c := newCluster(t, clusterOpts{
			n:         4,
			cmFactory: factory,
			detector:  cd.Null{},
			adversary: radio.NewRandomLoss(0.5, 0, cd.Never, seed*17),
			seed:      seed,
		})
		c.runInstances(60)
		rep := c.rec.Report()
		broken := 0
		for _, r := range c.replicas {
			broken += r.Core().BrokenChains
		}
		if rep.AgreementViolations > 0 || broken > 0 {
			demonstrated = true
		}
	}
	if !demonstrated {
		t.Error("expected the Null-detector ablation to violate agreement or break chains")
	}
}

func TestColorSpreadWithinOneShade(t *testing.T) {
	// Property 4 under heavy noise: per-instance colors across nodes never
	// differ by more than one shade.
	for seed := int64(1); seed <= 10; seed++ {
		factory, _ := cm.NewFixed(0)
		c := newCluster(t, clusterOpts{
			n:         6,
			cmFactory: factory,
			detector:  cd.EventuallyAC{Racc: cd.Never, FalsePositiveRate: 0.3},
			adversary: radio.NewRandomLoss(0.4, 0.3, cd.Never, seed),
			seed:      seed * 13,
		})
		c.runInstances(50)
		rep := c.rec.Report()
		if rep.MaxColorSpread > 1 {
			t.Errorf("seed %d: color spread %d > 1", seed, rep.MaxColorSpread)
		}
	}
}

func TestPhaseOf(t *testing.T) {
	tests := []struct {
		r     sim.Round
		k     cha.Instance
		phase cha.Phase
	}{
		{0, 1, cha.PhaseBallot},
		{1, 1, cha.PhaseVeto1},
		{2, 1, cha.PhaseVeto2},
		{3, 2, cha.PhaseBallot},
		{299, 100, cha.PhaseVeto2},
	}
	for _, tt := range tests {
		k, p := cha.PhaseOf(tt.r)
		if k != tt.k || p != tt.phase {
			t.Errorf("PhaseOf(%d) = (%d, %v), want (%d, %v)", tt.r, k, p, tt.k, tt.phase)
		}
	}
	for _, p := range []cha.Phase{cha.PhaseBallot, cha.PhaseVeto1, cha.PhaseVeto2} {
		if p.String() == "phase(?)" {
			t.Errorf("missing String for phase %d", p)
		}
	}
}

func TestReplicaConfigValidation(t *testing.T) {
	factory, _ := cm.NewFixed(0)
	medium := radio.MustMedium(radio.Config{Radii: testRadii, Detector: cd.AC{}})
	eng := sim.NewEngine(medium)
	mustPanic := func(name string, cfg cha.Config) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		eng.Attach(geo.Point{}, nil, func(env sim.Env) sim.Node {
			return cha.NewReplica(env, cfg)
		})
	}
	mustPanic("missing propose", cha.Config{CM: factory(fakeCMEnv{})})
	mustPanic("missing cm", cha.Config{Propose: func(cha.Instance) cha.Value { return cha.Value{} }})
}

type fakeCMEnv struct{}

func (fakeCMEnv) ID() sim.NodeID       { return 0 }
func (fakeCMEnv) Location() geo.Point  { return geo.Point{} }
func (fakeCMEnv) Intn(int) int         { return 0 }
func (fakeCMEnv) Float64() float64     { return 0 }
func (fakeCMEnv) SleepUntil(sim.Round) {}
