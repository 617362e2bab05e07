package spec

import (
	"bytes"
	"testing"

	"vinfra/internal/checkpoint"
	"vinfra/internal/geo"
	"vinfra/internal/sim"
	"vinfra/internal/vi"
)

// smallSpec is the shared fixture: a 2x1 counter world with pingers, small
// enough that a handful of virtual rounds stays fast under -race.
func smallSpec(t *testing.T) Spec {
	t.Helper()
	s, err := Parse([]byte(`{
		"version": "vinfra-spec/v1", "seed": 9, "vrounds": 8,
		"grid": {"cols": 2, "rows": 1},
		"devices": {"pingers": true}}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return s
}

func run(t *testing.T, w *World, vrounds int) {
	t.Helper()
	for i := 0; i < vrounds; i++ {
		w.StepVRound()
	}
}

func TestBuildDeterministic(t *testing.T) {
	s := smallSpec(t)
	a, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer a.Eng.Close()
	b, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer b.Eng.Close()
	run(t, a, 6)
	run(t, b, 6)
	if !bytes.Equal(a.Checkpoint().Encode(), b.Checkpoint().Encode()) {
		t.Fatal("two runs of the same spec diverged")
	}
	if a.Summary().MeanAvailability != 1 {
		t.Fatalf("fault-free availability %.3f, want 1.0", a.Summary().MeanAvailability)
	}
}

func TestShardedMatchesSequential(t *testing.T) {
	s := smallSpec(t)
	seq, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer seq.Eng.Close()
	s.Engine.Shards = 2
	shd, err := Build(s)
	if err != nil {
		t.Fatalf("Build sharded: %v", err)
	}
	defer shd.Eng.Close()
	run(t, seq, 4)
	run(t, shd, 4)
	// Engine snapshots record the shard plan and halo accounting, so the
	// cross-configuration contract is the monitor bytes plus the core stats.
	if !bytes.Equal(seq.Mon.Snapshot().AppendTo(nil), shd.Mon.Snapshot().AppendTo(nil)) {
		t.Fatal("sharded run diverged from sequential (monitor)")
	}
	seqStats, shdStats := seq.Eng.Stats(), shd.Eng.Stats()
	seqStats.HaloTransmissions, shdStats.HaloTransmissions = 0, 0
	if seqStats != shdStats {
		t.Fatalf("sharded stats %+v diverged from sequential %+v", shdStats, seqStats)
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	s := smallSpec(t)
	ref, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer ref.Eng.Close()
	run(t, ref, 6)
	want := ref.Checkpoint().Encode()

	half, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	run(t, half, 3)
	cp := half.Checkpoint()
	half.Eng.Close()

	resumed, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer resumed.Eng.Close()
	if err := resumed.Restore(cp); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if resumed.VRound() != 3 {
		t.Fatalf("restored vround %d, want 3", resumed.VRound())
	}
	run(t, resumed, 3)
	if !bytes.Equal(resumed.Checkpoint().Encode(), want) {
		t.Fatal("restored run diverged from the straight run")
	}
}

// TestInjectFaultMatchesListedFault pins the injection equivalence the
// service API leans on: building from a spec that lists a fault is
// byte-identical to building without it and injecting the same fault
// mid-run, before its window opens — including the defaulted seed, which
// derives from the fault's index either way.
func TestInjectFaultMatchesListedFault(t *testing.T) {
	s := smallSpec(t)
	burst := Fault{Kind: KindCrashBurst, From: 150, Until: 250, Period: 30, P: 0.5}

	listed := s
	listed.Faults = []Fault{burst}
	listed.ApplyDefaults()
	ref, err := Build(listed)
	if err != nil {
		t.Fatalf("Build listed: %v", err)
	}
	defer ref.Eng.Close()
	run(t, ref, 6)

	inj, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer inj.Eng.Close()
	run(t, inj, 2) // 2 vrounds < 150 radio rounds? per-vround is ~50; stay before From.
	if got := inj.VRound() * inj.RoundsPerVRound(); got >= burst.From {
		t.Fatalf("test drove past the fault window opening (round %d >= %d)", got, burst.From)
	}
	if err := inj.InjectFault(Fault{Kind: KindCrashBurst, From: 150, Until: 250, Period: 30, P: 0.5}); err != nil {
		t.Fatalf("InjectFault: %v", err)
	}
	run(t, inj, 4)

	if !bytes.Equal(ref.Checkpoint().Encode(), inj.Checkpoint().Encode()) {
		t.Fatal("injected fault diverged from the same fault listed in the spec")
	}
	if inj.Spec.Faults[0].Seed != listed.Faults[0].Seed {
		t.Fatalf("injected fault seed %d != listed %d", inj.Spec.Faults[0].Seed, listed.Faults[0].Seed)
	}
	if string(inj.Spec.JSON()) != string(listed.JSON()) {
		t.Fatal("effective spec after injection differs from the listed spec")
	}
}

func TestInjectFaultRejectsJammers(t *testing.T) {
	w, err := Build(smallSpec(t))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer w.Eng.Close()
	if err := w.InjectFault(Fault{Kind: KindCellJammer, Cells: 2}); err == nil {
		t.Fatal("jammer injection accepted")
	}
	if err := w.InjectFault(Fault{Kind: "sharknado"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestBuildTrackerWorld(t *testing.T) {
	s, err := Parse([]byte(`{
		"version": "vinfra-spec/v1", "seed": 3, "vrounds": 12,
		"grid": {"cols": 2, "rows": 1},
		"app": "tracker",
		"devices": {"targets": 1, "listeners": 2}}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	w, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer w.Eng.Close()
	if len(w.Targets) != 1 || w.Observer == nil {
		t.Fatalf("tracker world missing targets/observer: %+v", w.Targets)
	}
	run(t, w, 12)
	if _, ok := w.Lookup("target-00"); !ok {
		t.Fatal("observer never saw target-00")
	}
}

func TestBuildWithJammerDegradesAvailability(t *testing.T) {
	s := smallSpec(t)
	s.VRounds = 6
	s.Faults = []Fault{{
		Kind:   KindRegionJammer,
		Radius: 3,
		From:   0,
	}}
	s.ApplyDefaults()
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	w, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer w.Eng.Close()
	run(t, w, 6)
	if avail := w.Summary().MeanAvailability; avail >= 1 {
		t.Fatalf("always-on region jammer left availability at %.3f", avail)
	}
}

// churnRegion0 is a driver-side churn on smallSpec's region 0: its leader
// and one follower depart, leadership hands to the survivor, and a fresh
// device arrives through AttachReplica to acquire state by the join
// protocol. joined counts the caller's own OnJoin hook firing.
func churnRegion0(t *testing.T, w *World, joined *int) *vi.Emulator {
	t.Helper()
	w.Eng.Leave(0)
	w.Eng.Leave(1)
	if err := w.SetLeader(0, 2); err != nil {
		t.Fatalf("SetLeader: %v", err)
	}
	return w.AttachReplica(geo.Point{X: w.Locs[0].X - 0.6, Y: w.Locs[0].Y - 0.35}, false,
		vi.EmulatorHooks{OnJoin: func(vi.VNodeID, int) { *joined++ }})
}

// TestAttachReplicaFeedsMonitor pins the mid-run attach path: the arriving
// replica joins, its outputs reach the world's monitor (after the last
// bootstrapped replica departs they are the region's only source), the
// caller's hooks fire, and the world's own churn counters stay with the
// replicas Build attached.
func TestAttachReplicaFeedsMonitor(t *testing.T) {
	w, err := Build(smallSpec(t))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer w.Eng.Close()
	run(t, w, 2)
	joined := 0
	id := sim.NodeID(w.Eng.NumNodes())
	em := churnRegion0(t, w, &joined)
	run(t, w, 4)
	if !em.Joined() || joined != 1 {
		t.Fatalf("attached replica joined=%v, OnJoin fired %d times; want a completed join", em.Joined(), joined)
	}
	if w.Joins() != 0 {
		t.Fatalf("world counted %d joins; the caller's hooks own mid-run replicas", w.Joins())
	}
	// The last bootstrapped replica goes: from here every output for vnode
	// 0 comes from the attached replica alone.
	w.Eng.Leave(2)
	if err := w.SetLeader(0, id); err != nil {
		t.Fatalf("SetLeader: %v", err)
	}
	before := w.Report(0).Green
	run(t, w, 6)
	if after := w.Report(0).Green; after <= before {
		t.Fatalf("vnode 0 green instances stayed at %d with only the attached replica alive: its outputs are not reaching the monitor", after)
	}
}

// TestAttachReplicaSurvivesRestore pins the restore protocol for mid-run
// replicas: checkpoint after the attach, rebuild from the spec, re-attach,
// Restore — and the resumed run, join included, is byte-identical to the
// uninterrupted one.
func TestAttachReplicaSurvivesRestore(t *testing.T) {
	s := smallSpec(t)
	var joined int
	build := func() *World {
		w, err := Build(s)
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		return w
	}
	ref := build()
	defer ref.Eng.Close()
	run(t, ref, 2)
	churnRegion0(t, ref, &joined)
	run(t, ref, 6)
	want := ref.Checkpoint().Encode()

	half := build()
	run(t, half, 2)
	churnRegion0(t, half, &joined) // checkpointed before the arrival has joined
	cp, err := checkpoint.Decode(half.Checkpoint().Encode())
	half.Eng.Close()
	if err != nil {
		t.Fatalf("checkpoint round trip: %v", err)
	}

	resumed := build()
	defer resumed.Eng.Close()
	if err := resumed.Restore(cp); err == nil {
		t.Fatal("Restore accepted a checkpoint with one more node than the rebuilt world")
	}
	resumed = build()
	defer resumed.Eng.Close()
	resumed.AttachReplica(resumed.Locs[0], false, vi.EmulatorHooks{})
	if err := resumed.Restore(cp); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	run(t, resumed, 6)
	if !bytes.Equal(resumed.Checkpoint().Encode(), want) {
		t.Fatal("run resumed over a re-attached replica diverged from the straight run")
	}
}

// TestSetLeader pins the handoff: when a region's fixed leader departs,
// the region keeps deciding only if leadership was handed on; and the
// "regional" regime, which elects for itself, refuses the call.
func TestSetLeader(t *testing.T) {
	avail := func(handoff bool) float64 {
		w, err := Build(smallSpec(t))
		if err != nil {
			t.Fatalf("Build: %v", err)
		}
		defer w.Eng.Close()
		run(t, w, 2)
		w.Eng.Leave(0)
		if handoff {
			if err := w.SetLeader(0, 1); err != nil {
				t.Fatalf("SetLeader: %v", err)
			}
		}
		run(t, w, 6)
		return w.Report(0).Availability
	}
	if with, without := avail(true), avail(false); with != 1 || without >= with {
		t.Fatalf("availability %.3f with handoff, %.3f without; want 1 and a stall", with, without)
	}

	s := smallSpec(t)
	w, err := Build(s)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer w.Eng.Close()
	if err := w.SetLeader(vi.VNodeID(len(w.Locs)), 0); err == nil {
		t.Fatal("SetLeader accepted a virtual node outside the grid")
	}
	s.Leader = "regional"
	r, err := Build(s)
	if err != nil {
		t.Fatalf("Build regional: %v", err)
	}
	defer r.Eng.Close()
	if err := r.SetLeader(0, 1); err == nil {
		t.Fatal("SetLeader succeeded under the regional regime")
	}
}
