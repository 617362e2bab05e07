package sim_test

import (
	"bytes"
	"fmt"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/geo"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
	"vinfra/internal/spec"
	"vinfra/internal/vi"
	"vinfra/internal/wire"
)

// The quiet-round oracle: a round nobody transmits in, on an exact medium,
// is the empty reception everywhere, and the engine that skips the medium
// for it (and tells every node, hook and statistic so) must be
// indistinguishable from the engine that asks the medium every round
// (SetQuietOff). A world stepped both ways must encode to the same
// checkpoint — every node's state — and carry the same Stats, halo copies
// included, after every virtual round.

// quietBed is a world the quiet oracle steps: one virtual round at a time,
// and a digest of everything it holds.
type quietBed struct {
	step   func()
	digest func() []byte
	eng    *sim.Engine
}

// specBed wraps a spec world, or an E13 soak.
func specBed(s stepper) quietBed {
	return quietBed{step: s.StepVRound, digest: func() []byte { return s.Checkpoint().Encode() }, eng: engineOf(s)}
}

// counterState is the hand-built beds' virtual node state: virtual rounds
// stepped, pings heard, collisions.
type counterState struct{ rounds, pings, collisions int }

// handBed is a 2x2 grid built without spec, so that the detector can be
// chosen: three replicas and a pinging client a region over a counting
// program that speaks in its slot, under det and, when not nil, adv.
func handBed(det cd.Detector, adv radio.Adversary) func() quietBed {
	return func() quietBed {
		radii := geo.Radii{R1: 10, R2: 20}
		locs := geo.Grid{Spacing: 6, Cols: 2, Rows: 2}.Locations()
		dep, err := vi.NewDeployment(vi.DeploymentConfig{
			Locations: locs,
			Radii:     radii,
			Program: func(v vi.VNodeID, sched vi.Schedule) vi.Program {
				return vi.Codec[counterState]{
					InitState: func(vi.VNodeID, geo.Point) counterState { return counterState{} },
					Step: func(s counterState, _ int, in vi.RoundInput) counterState {
						s.rounds++
						s.pings += len(in.Msgs)
						if in.Collision {
							s.collisions++
						}
						return s
					},
					Out: func(s counterState, vround int) *vi.Message {
						if !sched.ScheduledIn(v, vround-1) {
							return nil
						}
						return vi.Text(fmt.Sprintf("pings=%d", s.pings))
					},
					EncodeState: func(dst []byte, s counterState) []byte {
						dst = wire.AppendUvarint(dst, uint64(s.rounds))
						dst = wire.AppendUvarint(dst, uint64(s.pings))
						return wire.AppendUvarint(dst, uint64(s.collisions))
					},
					DecodeState: func(d *wire.Decoder) (counterState, error) {
						s := counterState{int(d.Uvarint()), int(d.Uvarint()), int(d.Uvarint())}
						return s, d.Err()
					},
				}
			},
		})
		if err != nil {
			panic(err)
		}
		medium := radio.MustMedium(radio.Config{Radii: radii, Detector: det, Adversary: adv, Seed: 11})
		eng := sim.NewEngine(medium, sim.WithSeed(11))
		for _, loc := range locs {
			for i := 0; i < 3; i++ {
				eng.Attach(geo.Point{X: loc.X + 0.4*float64(i) - 0.4, Y: loc.Y + 0.3}, nil, func(env sim.Env) sim.Node {
					return dep.NewEmulator(env, true)
				})
			}
			eng.Attach(geo.Point{X: loc.X - 1, Y: loc.Y - 1}, nil, func(env sim.Env) sim.Node {
				return dep.NewClient(env, vi.ClientFunc(func(vr int, _ []vi.Message, _ bool) *vi.Message {
					return vi.Text(fmt.Sprintf("ping-%d", vr))
				}))
			})
		}
		per := dep.Timing().RoundsPerVRound()
		return quietBed{
			step:   func() { eng.Run(per) },
			digest: func() []byte { return eng.Snapshot().AppendTo(nil) },
			eng:    eng,
		}
	}
}

// heard folds every round's receptions, as a RoundHook is handed them —
// one per node ever attached — into one byte string: per node, how many
// messages and whether a collision.
func heard(eng *sim.Engine) *[]byte {
	var b []byte
	eng.OnRound(func(_ sim.Round, _ []sim.Transmission, rxs []sim.Reception) {
		b = wire.AppendUvarint(b, uint64(len(rxs)))
		for _, rx := range rxs {
			b = wire.AppendUvarint(b, uint64(len(rx.Msgs)))
			b = wire.AppendBool(b, rx.Collision)
		}
	})
	return &b
}

// checkQuietOracle steps a bed built twice, one with every round asking
// the medium, and returns the receptions each computed: quiet rounds show
// as fewer on the first. A hook on each must be handed the same receptions.
func checkQuietOracle(t *testing.T, name string, vrounds int, build func() quietBed) (on, off int) {
	t.Run(name, func(t *testing.T) {
		defer sim.SetQuietOff(false)
		a := build()
		sim.SetQuietOff(true)
		b := build()
		sim.SetQuietOff(false)
		hookA, hookB := heard(a.eng), heard(b.eng)
		for vr := 1; vr <= vrounds; vr++ {
			sim.SetQuietOff(true)
			b.step()
			sim.SetQuietOff(false)
			a.step()
			if !bytes.Equal(a.digest(), b.digest()) {
				t.Fatalf("after virtual round %d the world differs from the one that asked the medium every round", vr)
			}
			if !bytes.Equal(*hookA, *hookB) {
				t.Fatalf("in virtual round %d a hook was handed other receptions than the one that asked the medium every round", vr)
			}
			*hookA, *hookB = (*hookA)[:0], (*hookB)[:0]
			if sa, sb := a.eng.Stats(), b.eng.Stats(); sa != sb {
				t.Fatalf("after virtual round %d the stats are %+v, asking the medium every round %+v", vr, sa, sb)
			}
		}
		on, off = a.eng.Counts().Receptions, b.eng.Counts().Receptions
		t.Logf("%d receptions computed, %d asking the medium every round", on, off)
	})
	return on, off
}

// TestQuietOracle holds quiet rounds to the medium on the metro world
// (cd.AC), the jammed hostile bed (region and cell jammers forcing
// collisions, a wipe, crash bursts, a herd), a ◇AC bed under random loss
// across its accuracy round, a cd.Null bed — which is never quiet, so both
// ways compute every reception — E13's storm on the parallel engine, and the
// hostile bed and the metro world on the 2x2 region-sharded engine, where
// halo copies are counted.
func TestQuietOracle(t *testing.T) {
	metro := spec.Spec{
		Seed: 1, VRounds: 1 << 30, Grid: spec.Grid{Cols: 15, Rows: 15},
		Devices: spec.Devices{Replicas: 3, Pingers: true},
	}
	twoByTwo := spec.Engine{Workers: 2, Shards: 4}
	sharded := func(s spec.Spec) spec.Spec {
		s.Engine = twoByTwo
		return s
	}
	per := vi.Timing{S: vi.BuildSchedule(geo.Grid{Spacing: 6, Cols: 2, Rows: 2}.Locations(), geo.Radii{R1: 10, R2: 20}).Len()}.RoundsPerVRound()
	racc := sim.Round(6 * per)
	beds := []struct {
		name    string
		vrounds int
		build   func() quietBed
		quiet   bool // whether any round may be quiet
	}{
		{"metro", 12, func() quietBed { return specBed(mustBuild(metro)) }, true},
		{"jammed", 24, func() quietBed { return specBed(mustBuild(hostile(spec.Engine{}))) }, true},
		{"eventually-AC", 16, handBed(cd.EventuallyAC{Racc: racc, FalsePositiveRate: 0.1}, radio.NewRandomLoss(0.2, 0.1, racc, 3)), true},
		{"null", 12, handBed(cd.Null{}, nil), false},
		{"E13-storm", 24, func() quietBed { return specBed(e13("storm", 0)()) }, true},
		{"jammed/sharded", 24, func() quietBed { return specBed(mustBuild(hostile(twoByTwo))) }, true},
		{"metro/sharded", 12, func() quietBed { return specBed(mustBuild(sharded(metro))) }, true},
	}
	for _, b := range beds {
		on, off := checkQuietOracle(t, b.name, b.vrounds, b.build)
		switch {
		case b.quiet && on >= off:
			t.Errorf("%s: %d receptions computed, %d asking the medium every round: no round was quiet", b.name, on, off)
		case !b.quiet && on != off:
			t.Errorf("%s: %d receptions computed, %d asking the medium every round: a round was quiet", b.name, on, off)
		}
	}
}
