// Package spec defines the versioned JSON deployment spec — the single
// serializable description of "a world" that every front end constructs
// simulations through: cmd/visim (-spec), cmd/visimd (POST /v1/sims) and
// tests. A spec names the grid geometry, radio parameters, device
// population, VI application, engine configuration (parallel / region
// shards) and a deterministic fault schedule; Build turns it into the full
// engine/deployment/monitor stack. The same spec and seed produce a
// byte-identical run wherever it is driven from — the determinism contract
// extends through the API surface.
//
// # Format (vinfra-spec/v1)
//
//	{
//	  "version": "vinfra-spec/v1",
//	  "seed": 7,
//	  "vrounds": 60,
//	  "grid": {"cols": 3, "rows": 3, "spacing": 6},
//	  "radii": {"r1": 10, "r2": 20},
//	  "app": "counter",
//	  "devices": {"replicas": 3, "pingers": true, "listeners": 0,
//	              "targets": 0, "vmax": 0.02},
//	  "engine": {"parallel": false, "workers": 0, "shards": 0},
//	  "leader": "fixed",
//	  "faults": [
//	    {"kind": "region_wipe", "x": 0, "y": 0, "radius": 1, "at": 210},
//	    {"kind": "region_jammer", "radius": 2.5, "period": 84, "burst": 21}
//	  ]
//	}
//
// Decoding is strict: unknown fields are rejected, as are fields a fault
// kind does not use, so a typo'd spec fails loudly instead of silently
// running a different world. Defaults (seed 1, spacing 6, radii 10/20,
// three replicas, 60 virtual rounds, app "counter", fixed leaders) are
// materialized by Parse; the effective spec a run actually used is
// reproducible via JSON (visim -dump-spec prints it).
//
// Fault windows and strike rounds are radio rounds, not virtual rounds; a
// virtual round is Schedule.Len()+12 radio rounds (vi.Timing). Fault seeds
// default to seed + 101*(i+1), where i is the fault's index — stable
// whether the fault was listed in the spec or injected mid-run at that
// index, which is what keeps an HTTP-injected fault byte-identical to the
// same fault listed in the spec.
package spec

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// Version is the spec format this package reads and writes.
const Version = "vinfra-spec/v1"

// MaxDevices bounds the total node population a spec may describe; the
// daemon refuses larger worlds rather than dying on an absurd request.
const MaxDevices = 1 << 20

// maxWorkers and maxShards bound engine.workers and engine.shards: Build
// starts one goroutine per worker and constructs one medium per shard, so
// neither may be sized by an unchecked number from a request.
const (
	maxWorkers = 256
	maxShards  = 256
)

// Spec is one deployment description. The zero value is not runnable;
// obtain a valid spec through Parse (strict decode + defaults + validation)
// or fill the fields and call ApplyDefaults then Validate.
type Spec struct {
	Version string `json:"version"`
	// Seed is the master seed for every random stream in the run.
	Seed int64 `json:"seed,omitempty"`
	// VRounds is the run's virtual-round horizon.
	VRounds int  `json:"vrounds,omitempty"`
	Grid    Grid `json:"grid"`
	// Radii are the quasi-unit-disk radio parameters.
	Radii Radii `json:"radii,omitempty"`
	// App selects the virtual node program: "counter" (each virtual node
	// counts client messages and broadcasts the count) or "tracker" (the
	// target-tracking service of cmd/visim).
	App     string  `json:"app,omitempty"`
	Devices Devices `json:"devices,omitempty"`
	Engine  Engine  `json:"engine,omitempty"`
	// Leader selects the contention-manager regime: "fixed" (the region's
	// first replica leads; the managed-deployment setting every soak uses)
	// or "regional" (the paper's leader-election manager).
	Leader string `json:"leader,omitempty"`
	// Faults is the deterministic adversary schedule, in order. Engine
	// kinds may also be appended mid-run (World.InjectFault); jammer kinds
	// ride in the medium configuration and are build-time only.
	Faults []Fault `json:"faults,omitempty"`
}

// Grid places the virtual nodes on a Cols x Rows grid.
type Grid struct {
	Cols    int     `json:"cols"`
	Rows    int     `json:"rows"`
	Spacing float64 `json:"spacing,omitempty"`
}

// Radii mirrors geo.Radii in spec form.
type Radii struct {
	R1 float64 `json:"r1,omitempty"`
	R2 float64 `json:"r2,omitempty"`
}

// Devices describes the device population tethered to the deployment.
type Devices struct {
	// Replicas is the number of bootstrapped emulator devices per virtual
	// node.
	Replicas int `json:"replicas,omitempty"`
	// Pingers attaches one stationary client per region, staggered so
	// neighboring pings do not collide every client slot.
	Pingers bool `json:"pingers,omitempty"`
	// Listeners attaches roaming receive-only clients spread uniformly
	// over the field (the city-scale population filler).
	Listeners int `json:"listeners,omitempty"`
	// Targets attaches roaming beacon clients plus one stationary
	// observer (app "tracker" only).
	Targets int `json:"targets,omitempty"`
	// VMax bounds device speed (roaming mobility and the regional
	// contention manager's eligibility margin).
	VMax float64 `json:"vmax,omitempty"`
}

// Engine selects the execution strategy. All settings are cost-only: the
// run's output is byte-identical whatever they are set to.
type Engine struct {
	// Parallel fans each round's mobility, Transmit and Receive out across
	// a worker pool, and runs region shards concurrently.
	Parallel bool `json:"parallel,omitempty"`
	// Workers caps the pool (0 = GOMAXPROCS), at most
	// 256; implies Parallel.
	Workers int `json:"workers,omitempty"`
	// Shards > 0 (at most 256) splits the world near-square into region
	// shards with a medium each: what parallelises delivery.
	Shards int `json:"shards,omitempty"`
}

// Parse strictly decodes, defaults and validates one spec document.
// Unknown fields, trailing data and invalid configurations are errors.
func Parse(b []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("spec: trailing data after the spec object")
	}
	s.ApplyDefaults()
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// ApplyDefaults materializes every defaulted field in place, so the
// resulting spec re-encodes as the complete configuration the run uses.
func (s *Spec) ApplyDefaults() {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.VRounds == 0 {
		s.VRounds = 60
	}
	if s.Grid.Spacing == 0 {
		s.Grid.Spacing = 6
	}
	if s.Radii.R1 == 0 {
		s.Radii.R1 = 10
	}
	if s.Radii.R2 == 0 {
		s.Radii.R2 = 20
	}
	if s.App == "" {
		s.App = "counter"
	}
	if s.Devices.Replicas == 0 {
		s.Devices.Replicas = 3
	}
	if s.Devices.VMax == 0 {
		s.Devices.VMax = 0.02
	}
	if s.Engine.Workers > 0 {
		s.Engine.Parallel = true
	}
	if s.Leader == "" {
		s.Leader = "fixed"
	}
	for i := range s.Faults {
		s.Faults[i].applyDefaults(s, i)
	}
}

// Validate checks the defaulted spec. It never mutates the spec.
func (s *Spec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("spec: version %q, this build reads %q", s.Version, Version)
	}
	if s.Grid.Cols < 1 || s.Grid.Rows < 1 {
		return fmt.Errorf("spec: grid must be at least 1x1 (got %dx%d)", s.Grid.Cols, s.Grid.Rows)
	}
	if s.Grid.Spacing <= 0 {
		return fmt.Errorf("spec: grid spacing must be positive (got %g)", s.Grid.Spacing)
	}
	if s.Radii.R1 <= 0 || s.Radii.R2 < s.Radii.R1 {
		return fmt.Errorf("spec: radii need 0 < r1 <= r2 (got r1=%g r2=%g)", s.Radii.R1, s.Radii.R2)
	}
	if s.VRounds < 1 {
		return fmt.Errorf("spec: vrounds must be at least 1 (got %d)", s.VRounds)
	}
	switch s.App {
	case "counter", "tracker":
	default:
		return fmt.Errorf("spec: unknown app %q (want counter or tracker)", s.App)
	}
	switch s.Leader {
	case "fixed", "regional":
	default:
		return fmt.Errorf("spec: unknown leader %q (want fixed or regional)", s.Leader)
	}
	d := s.Devices
	if d.Replicas < 1 {
		return fmt.Errorf("spec: devices.replicas must be at least 1 (got %d)", d.Replicas)
	}
	if d.Listeners < 0 || d.Targets < 0 {
		return fmt.Errorf("spec: devices.listeners and devices.targets must not be negative")
	}
	if d.Targets > 0 && s.App != "tracker" {
		return fmt.Errorf("spec: devices.targets needs app \"tracker\" (got %q)", s.App)
	}
	if d.VMax <= 0 {
		return fmt.Errorf("spec: devices.vmax must be positive (got %g)", d.VMax)
	}
	if s.TotalDevices() > MaxDevices {
		return fmt.Errorf("spec: more devices than the %d-device limit", MaxDevices)
	}
	if s.Engine.Workers < 0 || s.Engine.Shards < 0 {
		return fmt.Errorf("spec: engine.workers and engine.shards must not be negative")
	}
	if s.Engine.Workers > maxWorkers {
		return fmt.Errorf("spec: engine.workers %d exceeds the limit of %d", s.Engine.Workers, maxWorkers)
	}
	if s.Engine.Shards > maxShards {
		return fmt.Errorf("spec: engine.shards %d exceeds the limit of %d", s.Engine.Shards, maxShards)
	}
	for i := range s.Faults {
		if err := s.Faults[i].validate(); err != nil {
			return fmt.Errorf("spec: faults[%d]: %w", i, err)
		}
	}
	return nil
}

// TotalDevices is the node population the spec describes: replicas,
// pingers, listeners, targets, and the tracker observer. The count
// saturates at MaxDevices+1: every operand is capped there before it is
// multiplied or added, so no document can wrap it back under the limit.
func (s *Spec) TotalDevices() int {
	const over = MaxDevices + 1
	sat := func(n int) int { return min(n, over) }
	mul := func(a, b int) int { // a, b in [0, over]
		if a > 0 && b > over/a {
			return over
		}
		return a * b
	}
	vnodes := mul(sat(s.Grid.Cols), sat(s.Grid.Rows))
	n := mul(vnodes, sat(s.Devices.Replicas))
	if s.Devices.Pingers {
		n = sat(n + vnodes)
	}
	n = sat(n + sat(s.Devices.Listeners))
	if s.Devices.Targets > 0 {
		n = sat(n + sat(s.Devices.Targets) + 1) // plus the observer
	}
	return n
}

// JSON renders the spec as indented canonical JSON (field order is the
// struct order, so the same spec always produces the same bytes).
func (s Spec) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		// Spec contains only plain data types; Marshal cannot fail.
		panic("spec: marshal: " + err.Error())
	}
	return append(b, '\n')
}
