package cha_test

import (
	"testing"

	"vinfra/internal/cha"
	"vinfra/internal/spec"
)

// TestMetroBuildsNoHistory is the counted gate on building histories on
// demand: on the metro-vi benchmark's world (15x15 virtual nodes, three
// replicas and a pinger each), after 200 warm-up virtual rounds, its 675
// replicas close an instance each a virtual round and build no history: the
// close walks the chain and counts what breaks, and a steady close steps the
// one new position from the ballot its core adopted, so nobody asks for the
// output's history. Built at every close, that was 675 a virtual round.
func TestMetroBuildsNoHistory(t *testing.T) {
	defer cha.CountHistories(false)
	const warm, vrounds = 200, 10
	w, err := spec.Build(spec.Spec{
		Version: spec.Version, Seed: 1, VRounds: 1 << 30,
		Grid:    spec.Grid{Cols: 15, Rows: 15},
		Devices: spec.Devices{Replicas: 3, Pingers: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for vr := 0; vr < warm; vr++ {
		w.StepVRound()
	}
	cha.CountHistories(true)
	before := cha.HistoriesBuilt()
	for vr := 0; vr < vrounds; vr++ {
		w.StepVRound()
	}
	if n := cha.HistoriesBuilt() - before; n != 0 {
		t.Errorf("%d histories built in %d steady virtual rounds, want 0", n, vrounds)
	}
	if sum := w.Mon.SummaryThrough(len(w.Locs), w.VRound()); sum.Unavailable != 0 {
		t.Errorf("%d unavailable instances: the metro world must be green throughout", sum.Unavailable)
	}
}
