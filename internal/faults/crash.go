package faults

import (
	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

// Faults composes engine-level adversaries: each member strikes in order.
// Registering several faults on the engine is equivalent; Faults exists so
// a whole attack schedule can be passed around as one value.
type Faults []sim.Fault

var _ sim.Fault = Faults(nil)

// Strike implements sim.Fault.
func (fs Faults) Strike(r sim.Round, ctl sim.Control) {
	for _, f := range fs {
		f.Strike(r, ctl)
	}
}

// RegionWipe is a correlated crash: at round At, every alive node within
// Radius of Center fails at once — the "all replicas of a virtual node die
// together" scenario that forces the reset path of Section 4.3, as opposed
// to the one-at-a-time churn the join protocol absorbs.
type RegionWipe struct {
	Center geo.Point
	Radius float64
	At     sim.Round
}

var _ sim.Fault = RegionWipe{}

// Strike implements sim.Fault.
func (w RegionWipe) Strike(r sim.Round, ctl sim.Control) {
	if r != w.At {
		return
	}
	for _, id := range ctl.AliveIDs(nil) { // strikes once: nothing to reuse
		if ctl.Position(id).Within(w.Center, w.Radius) {
			ctl.Crash(id)
		}
	}
}

// CrashBurst fails a deterministic random fraction of the population in
// correlated bursts: at the start of every Period-round cycle inside its
// window, each alive eligible node crashes with probability P, drawn from
// the pure hash (Seed, cycle, node) — the same nodes die whatever order
// anything runs in.
type CrashBurst struct {
	Window
	Period int     // rounds between bursts; <= 0 means every round
	P      float64 // per-node crash probability per burst
	Seed   int64
	// Eligible restricts the victims (nil means every node). E13 uses it
	// to spare measurement clients so the columns keep reporting.
	Eligible func(id sim.NodeID) bool

	ids []sim.NodeID // AliveIDs scratch, reused across bursts
}

var _ sim.Fault = (*CrashBurst)(nil)

// Strike implements sim.Fault.
func (b *CrashBurst) Strike(r sim.Round, ctl sim.Control) {
	if !b.Active(r) || b.P <= 0 {
		return
	}
	cycle, phase := b.cycleAt(r, b.Period)
	if phase != 0 {
		return
	}
	b.ids = ctl.AliveIDs(b.ids)
	for _, id := range b.ids {
		if b.Eligible != nil && !b.Eligible(id) {
			continue
		}
		if u01(hashKeys(b.Seed, cycle, int64(id))) < b.P {
			ctl.Crash(id)
		}
	}
}

// ChurnStorm sustains adversarial turnover: at the start of every
// Period-round cycle inside its window it kills the Kills eligible alive
// nodes with the smallest (Seed, cycle, node) hashes and, for each, invokes
// Respawn with the victim and its final position — the experiment's chance
// to attach a replacement device (a fresh emulator that must re-acquire
// state through the join protocol). With Respawn nil the storm is pure
// attrition.
type ChurnStorm struct {
	Window
	Period int // rounds between storm fronts; <= 0 means every round
	Kills  int // victims per front
	Seed   int64
	// Eligible restricts the victims (nil means every node).
	Eligible func(id sim.NodeID) bool
	// Respawn, if non-nil, runs after each victim's crash, on the engine
	// goroutine. It may attach replacement nodes via a closed-over engine.
	Respawn func(victim sim.NodeID, at geo.Point)

	// Scratch reused across fronts: the alive ids and the front's victims.
	ids   []sim.NodeID
	picks []stormPick
}

// stormPick is one candidate victim of a storm front, ranked by hash (ties
// by id — distinct ids give distinct hashes virtually always, but the order
// must be total).
type stormPick struct {
	h  uint64
	id sim.NodeID
}

func (p stormPick) before(q stormPick) bool {
	if p.h != q.h {
		return p.h < q.h
	}
	return p.id < q.id
}

var _ sim.Fault = (*ChurnStorm)(nil)

// Strike implements sim.Fault.
func (s *ChurnStorm) Strike(r sim.Round, ctl sim.Control) {
	if !s.Active(r) || s.Kills <= 0 {
		return
	}
	cycle, phase := s.cycleAt(r, s.Period)
	if phase != 0 {
		return
	}
	// Keep the Kills smallest-ranked candidates, in rank order: a candidate
	// that does not beat the worst one kept — nearly all of them — costs one
	// compare. The alive ids are read once: respawned nodes join next
	// cycle's candidate pool, not this one's.
	s.ids = ctl.AliveIDs(s.ids)
	picks := s.picks[:0]
	for _, id := range s.ids {
		if s.Eligible != nil && !s.Eligible(id) {
			continue
		}
		p := stormPick{h: hashKeys(s.Seed, cycle, int64(id)), id: id}
		if len(picks) == s.Kills {
			if !p.before(picks[len(picks)-1]) {
				continue
			}
			picks = picks[:len(picks)-1]
		}
		i := len(picks)
		picks = append(picks, p)
		for ; i > 0 && p.before(picks[i-1]); i-- {
			picks[i] = picks[i-1]
		}
		picks[i] = p
	}
	s.picks = picks
	for _, v := range picks {
		at := ctl.Position(v.id)
		ctl.Crash(v.id)
		if s.Respawn != nil {
			s.Respawn(v.id, at)
		}
	}
}

// Herd is adversarial mobility: every round inside its window it drags its
// stable hash-picked cohort (fraction Frac of the eligible population)
// Step distance toward Focus. Held under the model's speed bound vmax,
// the pull empties outlying regions of replicas while overcrowding the
// focal one — contention pressure the contention managers must absorb.
type Herd struct {
	Window
	Focus geo.Point
	Frac  float64 // fraction of eligible nodes herded (stable per node)
	Step  float64 // per-round pull distance; keep <= vmax
	Seed  int64
	// Eligible restricts the herd (nil means every node).
	Eligible func(id sim.NodeID) bool

	ids []sim.NodeID // AliveIDs scratch, reused across rounds
}

var _ sim.Fault = (*Herd)(nil)

// Strike implements sim.Fault.
func (h *Herd) Strike(r sim.Round, ctl sim.Control) {
	if !h.Active(r) || h.Frac <= 0 || h.Step <= 0 {
		return
	}
	h.ids = ctl.AliveIDs(h.ids)
	for _, nid := range h.ids {
		if h.Eligible != nil && !h.Eligible(nid) {
			continue
		}
		// Membership is keyed by node only: the same cohort is dragged
		// every round, the worst case for the regions it abandons.
		if u01(hashKeys(h.Seed, int64(nid))) >= h.Frac {
			continue
		}
		pos := ctl.Position(nid)
		d := h.Focus.Sub(pos)
		if l := d.Len(); l <= h.Step {
			ctl.SetPosition(nid, h.Focus)
		} else {
			ctl.SetPosition(nid, pos.Add(d.Unit().Scale(h.Step)))
		}
	}
}
