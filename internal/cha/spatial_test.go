package cha_test

import (
	"fmt"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/cha"
	"vinfra/internal/cm"
	"vinfra/internal/geo"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
)

// TestSpatialReuseTwoGroups runs two independent CHA groups far enough
// apart (beyond R2) that they share the channel without interference —
// the spatial reuse the virtual infrastructure's schedule exploits. Both
// groups must behave exactly as if they were alone.
func TestSpatialReuseTwoGroups(t *testing.T) {
	medium := radio.MustMedium(radio.Config{Radii: testRadii, Detector: cd.AC{}})
	eng := sim.NewEngine(medium)

	buildGroup := func(center geo.Point, leader sim.NodeID) (*cha.Recorder, []*cha.Replica) {
		rec := cha.NewRecorder()
		var reps []*cha.Replica
		for i := 0; i < 3; i++ {
			i := i
			pos := geo.Point{X: center.X + float64(i), Y: center.Y}
			eng.Attach(pos, nil, func(env sim.Env) sim.Node {
				rep := cha.NewReplica(cha.Config{
					Propose: rec.WrapPropose(func(k cha.Instance) cha.Value {
						return cha.V(fmt.Sprintf("g%v-n%d-%d", center, i, k))
					}),
					CM:       new(cm.Fixed).Init(&leader, env),
					OnOutput: rec.OutputFunc(env.ID()),
				})
				reps = append(reps, rep)
				return rep
			})
		}
		return rec, reps
	}

	// Group A at the origin (IDs 0-2), group B 100 units away (IDs 3-5).
	recA, _ := buildGroup(geo.Point{}, 0)
	recB, _ := buildGroup(geo.Point{X: 100}, 3)

	eng.Run(30 * cha.RoundsPerInstance)

	for name, rec := range map[string]*cha.Recorder{"A": recA, "B": recB} {
		rep := rec.Report()
		if v := rep.Violations(); v != "" {
			t.Errorf("group %s: %s", name, v)
		}
		if rep.DecidedRate != 1 {
			t.Errorf("group %s: decided rate %v (cross-group interference?)", name, rep.DecidedRate)
		}
	}
}

// TestTwoGroupsWithinInterferenceRange places the groups close enough that
// their ballot phases collide: without a coordinating schedule, both
// groups' progress collapses — exactly why the emulation's schedule
// separates neighboring virtual nodes (Section 4.1).
func TestTwoGroupsWithinInterferenceRange(t *testing.T) {
	medium := radio.MustMedium(radio.Config{Radii: testRadii, Detector: cd.AC{}})
	eng := sim.NewEngine(medium)

	build := func(center geo.Point, leader sim.NodeID) *cha.Recorder {
		rec := cha.NewRecorder()
		for i := 0; i < 2; i++ {
			i := i
			pos := geo.Point{X: center.X + float64(i), Y: center.Y}
			eng.Attach(pos, nil, func(env sim.Env) sim.Node {
				return cha.NewReplica(cha.Config{
					Propose: rec.WrapPropose(func(k cha.Instance) cha.Value {
						return cha.V(fmt.Sprintf("n%d-%d", i, k))
					}),
					CM:       new(cm.Fixed).Init(&leader, env),
					OnOutput: rec.OutputFunc(env.ID()),
				})
			})
		}
		return rec
	}

	// 15 units apart: beyond R1 (no ballots cross) but within R2 (mutual
	// jamming).
	recA := build(geo.Point{}, 0)
	recB := build(geo.Point{X: 15}, 2)
	eng.Run(20 * cha.RoundsPerInstance)

	repA, repB := recA.Report(), recB.Report()
	// Safety must hold regardless.
	if repA.AgreementViolations+repB.AgreementViolations > 0 {
		t.Error("interference must never violate safety")
	}
	// But progress collapses: the two fixed leaders jam each other's
	// ballot phases forever.
	if repA.DecidedRate > 0 || repB.DecidedRate > 0 {
		t.Errorf("expected zero progress under mutual jamming, got %v / %v",
			repA.DecidedRate, repB.DecidedRate)
	}
}
