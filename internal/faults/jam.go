package faults

import (
	"vinfra/internal/det"
	"vinfra/internal/geo"
	"vinfra/internal/radio"
	"vinfra/internal/sim"
)

// Window bounds an adversary's activity to the rounds [From, Until). The
// zero value is "always active"; Until == 0 means no upper horizon. An
// adversary whose window has passed is the identity — the model's
// collision-freedom horizon r_cf.
type Window struct {
	From  sim.Round
	Until sim.Round
}

// Active reports whether round r falls inside the window.
func (w Window) Active(r sim.Round) bool {
	return r >= w.From && (w.Until == 0 || r < w.Until)
}

// cycleAt decomposes round r into its duty cycle: the 0-based index of the
// period-round cycle since the window opened, and r's phase within it.
// period <= 0 means every round is its own cycle (phase always 0) — the
// shared convention behind "Period <= 0 strikes/jams every round".
func (w Window) cycleAt(r sim.Round, period int) (cycle, phase int64) {
	since := int64(r - w.From)
	if period <= 0 {
		return since, 0
	}
	return since / int64(period), since % int64(period)
}

// Jammers composes radio-layer adversaries: deliveries pass through every
// member's Filter in order (each sees the previous survivor set), and a
// spurious indication is forced when any member forces one. Members are
// stateless pure functions of (configuration, round, position) like the
// jammers below, so the composite stays safe for the concurrent,
// order-free use shard mediums sharing it make of it. It exists so a
// deployment spec can stack several jammers behind the medium's single
// Adversary slot.
type Jammers []radio.Adversary

var _ radio.Adversary = Jammers(nil)

// Filter implements radio.Adversary.
func (js Jammers) Filter(r sim.Round, receiver sim.NodeID, at geo.Point, deliverable []sim.Transmission) []sim.Transmission {
	for _, j := range js {
		deliverable = j.Filter(r, receiver, at, deliverable)
	}
	return deliverable
}

// ForceCollision implements radio.Adversary.
func (js Jammers) ForceCollision(r sim.Round, receiver sim.NodeID, at geo.Point) bool {
	for _, j := range js {
		if j.ForceCollision(r, receiver, at) {
			return true
		}
	}
	return false
}

// CellJammer is a roaming wide-band jammer: each round it deterministically
// picks Cells cells of a CellSize-spaced grid over Bounds and saturates
// them — every receiver standing in a jammed cell loses all otherwise
// deliverable messages (a ground-truth loss that fires complete collision
// detectors for real) and gets a forced ± indication (the spurious side
// eventually-accurate detectors must learn to suppress).
//
// The jammed cell set is a pure hash of (Seed, round, k), and membership is
// a pure function of the receiver's position, so the jammer is stateless
// and safe for concurrent, order-free use by the shard mediums sharing it.
type CellJammer struct {
	Window
	Bounds   geo.Rect
	CellSize float64 // jamming footprint; R2 mirrors the medium's cell size
	// Cells is the number of per-round saturation picks (the intensity
	// knob). Picks are hash draws with replacement, so a round may jam
	// fewer distinct cells when draws collide; Cells is an upper bound,
	// not an exact count.
	Cells int
	Seed  int64
}

var _ radio.Adversary = (*CellJammer)(nil)

// jammed reports whether a receiver at p is inside a saturated cell in
// round r.
func (j *CellJammer) jammed(r sim.Round, p geo.Point) bool {
	if !j.Active(r) || j.Cells <= 0 || j.CellSize <= 0 || !j.Bounds.Contains(p) {
		return false
	}
	cols := int(j.Bounds.Width()/j.CellSize) + 1
	rows := int(j.Bounds.Height()/j.CellSize) + 1
	cx := int((p.X - j.Bounds.Min.X) / j.CellSize)
	cy := int((p.Y - j.Bounds.Min.Y) / j.CellSize)
	cell := int64(cy*cols + cx)
	n := int64(cols * rows)
	for k := 0; k < j.Cells; k++ {
		if int64(det.HashKeys(j.Seed, int64(r), int64(k))%uint64(n)) == cell {
			return true
		}
	}
	return false
}

// Filter implements radio.Adversary.
func (j *CellJammer) Filter(r sim.Round, _ sim.NodeID, at geo.Point, deliverable []sim.Transmission) []sim.Transmission {
	if j.jammed(r, at) {
		return nil
	}
	return deliverable
}

// ForceCollision implements radio.Adversary.
func (j *CellJammer) ForceCollision(r sim.Round, _ sim.NodeID, at geo.Point) bool {
	return j.jammed(r, at)
}

// RegionJammer parks a jammer on fixed targets — virtual-node locations,
// in the E13 campaign — with a duty cycle: within its window it jams for
// the first Burst rounds of every Period-round cycle. Rotate limits the
// attack to a per-cycle hash-picked subset of the targets (0 jams all of
// them), so the same adversary expresses both a standing area denial and a
// hopping targeted one. Receivers within Radius of a jammed target lose
// everything and get a forced ± indication, exactly like CellJammer.
type RegionJammer struct {
	Window
	Targets []geo.Point
	Radius  float64
	Period  int // duty-cycle length in rounds; <= 0 means always jamming
	Burst   int // jammed rounds at the start of each cycle
	// Rotate is the number of per-cycle target picks; 0 means every
	// target. Picks are hash draws with replacement, so a cycle may jam
	// fewer distinct targets when draws collide; Rotate is an upper
	// bound, not an exact count.
	Rotate int
	Seed   int64
}

var _ radio.Adversary = (*RegionJammer)(nil)

// jammed reports whether a receiver at p is inside a jammed footprint in
// round r.
func (j *RegionJammer) jammed(r sim.Round, p geo.Point) bool {
	if !j.Active(r) || len(j.Targets) == 0 {
		return false
	}
	cycle, phase := j.cycleAt(r, j.Period)
	if j.Period > 0 && phase >= int64(j.Burst) {
		return false
	}
	if j.Rotate <= 0 || j.Rotate >= len(j.Targets) {
		for _, t := range j.Targets {
			if p.Within(t, j.Radius) {
				return true
			}
		}
		return false
	}
	for k := 0; k < j.Rotate; k++ {
		t := j.Targets[det.HashKeys(j.Seed, cycle, int64(k))%uint64(len(j.Targets))]
		if p.Within(t, j.Radius) {
			return true
		}
	}
	return false
}

// Filter implements radio.Adversary.
func (j *RegionJammer) Filter(r sim.Round, _ sim.NodeID, at geo.Point, deliverable []sim.Transmission) []sim.Transmission {
	if j.jammed(r, at) {
		return nil
	}
	return deliverable
}

// ForceCollision implements radio.Adversary.
func (j *RegionJammer) ForceCollision(r sim.Round, _ sim.NodeID, at geo.Point) bool {
	return j.jammed(r, at)
}
