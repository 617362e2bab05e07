package vi_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"vinfra/internal/cd"
	"vinfra/internal/cha"
	"vinfra/internal/geo"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
	"vinfra/internal/vi"
)

// viAgreementChecker verifies the emulation-level safety invariant: any
// two green outputs for the same (virtual node, instance) must carry
// identical history suffixes — i.e., replicas that decide a virtual round
// decide the same virtual node behaviour.
type viAgreementChecker struct {
	mu         sync.Mutex
	suffixes   map[string]string
	violations int
}

func newVIAgreementChecker() *viAgreementChecker {
	return &viAgreementChecker{suffixes: make(map[string]string)}
}

func (c *viAgreementChecker) hook(v vi.VNodeID, out cha.Output) {
	if out.Color != cha.Green {
		return
	}
	var suffix strings.Builder
	for k := out.Floor + 1; k <= out.Instance; k++ {
		val, ok := out.History().At(k)
		fmt.Fprintf(&suffix, "%d:%t:%q ", k, ok, val.Bytes())
	}
	key := fmt.Sprintf("%d/%d/%d", v, out.Floor, out.Instance)
	c.mu.Lock()
	if prev, ok := c.suffixes[key]; ok && prev != suffix.String() {
		c.violations++
	} else {
		c.suffixes[key] = suffix.String()
	}
	c.mu.Unlock()
}

// TestVIAgreementUnderLossManySeeds stresses the full emulation with
// sustained random loss and spurious collisions under the backoff CM, and
// requires zero green-output divergence across seeds. Safety of the
// emulation is unconditional, like CHAP's.
func TestVIAgreementUnderLossManySeeds(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		checker := newVIAgreementChecker()
		locs := geo.Grid{Spacing: 6, Cols: 2, Rows: 1}.Locations()
		dep, err := vi.NewDeployment(vi.DeploymentConfig{
			Locations: locs,
			Radii:     testRadii,
			Program:   counterProgram,
		})
		if err != nil {
			t.Fatal(err)
		}
		healAt := sim.Round(10 * dep.Timing().RoundsPerVRound())
		medium := radio.MustMedium(radio.Config{
			Radii:     testRadii,
			Detector:  cd.EventuallyAC{Racc: healAt, FalsePositiveRate: 0.15},
			Adversary: radio.NewRandomLoss(0.3, 0.15, healAt, seed*41),
			Seed:      seed,
		})
		eng := sim.NewEngine(medium, sim.WithSeed(seed))
		var emulators []*vi.Emulator
		for _, loc := range locs {
			for i := 0; i < 3; i++ {
				pos := geo.Point{X: loc.X + 0.3*float64(i) - 0.3, Y: loc.Y + 0.2}
				eng.Attach(pos, nil, func(env sim.Env) sim.Node {
					em := dep.NewEmulator(env, true)
					em.SetHooks(&vi.EmulatorHooks{OnOutput: checker.hook})
					emulators = append(emulators, em)
					return em
				})
			}
		}
		eng.Attach(geo.Point{X: 1, Y: -1.3}, nil, func(env sim.Env) sim.Node {
			return dep.NewClient(env, vi.ClientFunc(
				func(vr int, _ []vi.Message, _ bool) *vi.Message {
					return vi.Text(fmt.Sprintf("ping-%03d", vr))
				}))
		})

		eng.Run(30 * dep.Timing().RoundsPerVRound())

		if checker.violations > 0 {
			t.Errorf("seed %d: %d green-output divergences", seed, checker.violations)
		}
		// After healing, replicas of each virtual node converge.
		for v := 0; v < len(locs); v++ {
			var want string
			for i, em := range emulators {
				if em.VNode() != vi.VNodeID(v) || !em.Joined() {
					continue
				}
				got := string(em.StateBefore(31))
				if want == "" {
					want = got
				} else if got != want {
					t.Errorf("seed %d vn %d: replica %d diverged", seed, v, i)
				}
			}
		}
	}
}

// TestVICrashStorm crashes a replica every few virtual rounds while fresh
// devices keep joining; the virtual node's state must survive and all
// survivors agree.
func TestVICrashStorm(t *testing.T) {
	tb := newTestbed(t, testbedOpts{
		locs:        []geo.Point{{X: 0, Y: 0}},
		replicasPer: 4,
		leaders:     true,
	})
	tb.addClient(geo.Point{X: 1.3, Y: -1}, vi.ClientFunc(
		func(vr int, _ []vi.Message, _ bool) *vi.Message {
			return vi.Text(fmt.Sprintf("ping-%03d", vr))
		}))
	per := tb.dep.Timing().RoundsPerVRound()

	// Crash replicas 1..3 one at a time; attach replacements.
	var replacements []*vi.Emulator
	for round := 0; round < 3; round++ {
		tb.eng.Run(4 * per)
		tb.eng.Crash(sim.NodeID(round + 1))
		tb.eng.Attach(geo.Point{X: -0.3 * float64(round+1), Y: -0.4}, nil, func(env sim.Env) sim.Node {
			em := tb.dep.NewEmulator(env, false)
			replacements = append(replacements, em)
			return em
		})
	}
	tb.eng.Run(6 * per)

	// The original leader survived (ID 0 is never crashed); replacements
	// joined and agree with it.
	joinedReplacements := 0
	want := string(tb.emulators[0].StateBefore(100))
	for i, em := range replacements {
		if !em.Joined() {
			continue
		}
		joinedReplacements++
		if string(em.StateBefore(100)) != want {
			t.Errorf("replacement %d diverged", i)
		}
	}
	if joinedReplacements == 0 {
		t.Fatal("no replacement ever joined through the crash storm")
	}
	var st counterState
	decodeTestState(t, []byte(want), &st)
	if st.Pings < 10 {
		t.Errorf("virtual node lost history through the crash storm: %+v", st.Pings)
	}
}
