package sim_test

import (
	"bytes"
	"fmt"
	"testing"

	"vinfra/internal/sim"
	"vinfra/internal/spec"
)

// TestReserveChangesNothing holds Engine.Reserve to the world that grows its
// slices as it attaches: the city document with 10k roaming listeners,
// built once with spec.Build's Reserve and once with it a no-op
// (SetReserveOff), must encode to the same checkpoint bytes at every one of
// 24 virtual rounds, on the sequential engine and on the sharded one with
// two workers.
func TestReserveChangesNothing(t *testing.T) {
	defer sim.SetReserveOff(false)
	for _, eng := range []spec.Engine{{}, {Workers: 2, Shards: 4}} {
		t.Run(fmt.Sprintf("workers-%d-shards-%d", eng.Workers, eng.Shards), func(t *testing.T) {
			doc := spec.Spec{
				Version: spec.Version, Seed: 1, VRounds: 1 << 30,
				Grid:    spec.Grid{Cols: 15, Rows: 15},
				Devices: spec.Devices{Replicas: 3, Pingers: true, Listeners: 10_000},
				Engine:  eng,
			}
			reserved := mustBuild(doc)
			sim.SetReserveOff(true)
			grown := mustBuild(doc)
			sim.SetReserveOff(false)
			defer reserved.Eng.Close()
			defer grown.Eng.Close()
			for vr := 0; vr <= 24; vr++ {
				if vr > 0 {
					reserved.StepVRound()
					grown.StepVRound()
				}
				if a, b := reserved.Checkpoint().Encode(), grown.Checkpoint().Encode(); !bytes.Equal(a, b) {
					t.Fatalf("virtual round %d: the reserved world's checkpoint differs from the grown one's", vr)
				}
			}
		})
	}
}
