package experiments

import (
	"fmt"

	"vinfra/internal/geo"
	"vinfra/internal/sim"
	"vinfra/internal/spec"
	"vinfra/internal/vi"
)

// buildWorld constructs the VI stack every virtual-node cell runs on (the
// CHA-only cells run on newCluster). spec.Build is the one world
// constructor: a cell describes its deployment as a spec
// value (the suite's radii, spacing-6 grids and counter program are the spec
// defaults; E9 picks the router and lock apps) and attaches whatever the
// spec cannot express — its own clients (E5–E7's every-vround pinger, E9's
// packet senders and lock contenders), closure-carrying faults — on the
// returned world afterwards. A cell's spec is code, not input, so a spec
// Build rejects is a bug and panics.
func buildWorld(s spec.Spec) *spec.World {
	s.Version = spec.Version
	w, err := spec.Build(s)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return w
}

// attachPinger attaches a client that pings every virtual round from pos —
// the single-region load of E5–E7 (spec's Devices.Pingers is the staggered
// one-per-region population).
func attachPinger(w *spec.World, pos geo.Point) {
	w.Eng.Attach(pos, nil, func(env sim.Env) sim.Node {
		return w.Dep.NewClient(env, vi.ClientFunc(
			func(vr int, _ []vi.Message, _ bool) *vi.Message {
				return vi.Text(fmt.Sprintf("ping-%04d", vr))
			}))
	})
}

// stepVRounds runs n virtual rounds.
func stepVRounds(w *spec.World, n int) {
	for ; n > 0; n-- {
		w.StepVRound()
	}
}
