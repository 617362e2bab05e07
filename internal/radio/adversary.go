package radio

import (
	"vinfra/internal/det"
	"vinfra/internal/geo"
	"vinfra/internal/sim"
)

// RandomLoss drops each deliverable message independently with probability
// P, and forces a spurious collision indication with probability
// CollisionP, in every round before Until (the r_cf horizon). From Until
// onward it is the identity.
//
// Construct with NewRandomLoss to seed the deterministic random source.
// Each draw is keyed by (seed, round, receiver, sender), so the adversary
// is stateless, independent of the order receivers are filtered in, and
// safe for the concurrent use a parallel Medium makes of it.
type RandomLoss struct {
	p          float64
	collisionP float64
	until      sim.Round
	seed       int64
}

// NewRandomLoss returns a RandomLoss adversary active before round until.
func NewRandomLoss(p, collisionP float64, until sim.Round, seed int64) *RandomLoss {
	return &RandomLoss{
		p:          p,
		collisionP: collisionP,
		until:      until,
		seed:       seed,
	}
}

// u01 returns the deterministic uniform [0,1) draw for one
// (round, receiver, sender) triple.
func (a *RandomLoss) u01(r sim.Round, receiver sim.NodeID, sender int64) float64 {
	return det.U01(det.HashKeys(a.seed, int64(r), int64(receiver), sender))
}

// Filter implements Adversary.
func (a *RandomLoss) Filter(r sim.Round, receiver sim.NodeID, _ geo.Point, deliverable []sim.Transmission) []sim.Transmission {
	if r >= a.until || a.p <= 0 || len(deliverable) == 0 {
		return deliverable
	}
	kept := make([]sim.Transmission, 0, len(deliverable))
	for _, tx := range deliverable {
		if a.u01(r, receiver, int64(tx.Sender)) >= a.p {
			kept = append(kept, tx)
		}
	}
	return kept
}

// ForceCollision implements Adversary.
func (a *RandomLoss) ForceCollision(r sim.Round, receiver sim.NodeID, _ geo.Point) bool {
	if r >= a.until || a.collisionP <= 0 {
		return false
	}
	// The collision draw uses a sender key no real node carries.
	return a.u01(r, receiver, -1) < a.collisionP
}

// Script is a deterministic adversary driven by an explicit list of drop
// and forced-collision directives; it is how the Figure 2 rows and the unit
// tests stage exact loss patterns. The zero value is the identity
// adversary; add directives with Drop, DropAll and Collide.
type Script struct {
	drops   map[scriptKey]map[sim.NodeID]bool // receiver/round -> senders to drop
	dropAll map[scriptKey]bool
	collide map[scriptKey]bool
}

type scriptKey struct {
	round    sim.Round
	receiver sim.NodeID
}

// Drop schedules the message from sender to receiver in round r to be lost.
func (s *Script) Drop(r sim.Round, receiver, sender sim.NodeID) *Script {
	if s.drops == nil {
		s.drops = make(map[scriptKey]map[sim.NodeID]bool)
	}
	k := scriptKey{round: r, receiver: receiver}
	if s.drops[k] == nil {
		s.drops[k] = make(map[sim.NodeID]bool)
	}
	s.drops[k][sender] = true
	return s
}

// DropAll schedules every message to receiver in round r to be lost.
func (s *Script) DropAll(r sim.Round, receiver sim.NodeID) *Script {
	if s.dropAll == nil {
		s.dropAll = make(map[scriptKey]bool)
	}
	s.dropAll[scriptKey{round: r, receiver: receiver}] = true
	return s
}

// Collide forces a spurious collision indication at receiver in round r.
func (s *Script) Collide(r sim.Round, receiver sim.NodeID) *Script {
	if s.collide == nil {
		s.collide = make(map[scriptKey]bool)
	}
	s.collide[scriptKey{round: r, receiver: receiver}] = true
	return s
}

// Filter implements Adversary.
func (s *Script) Filter(r sim.Round, receiver sim.NodeID, _ geo.Point, deliverable []sim.Transmission) []sim.Transmission {
	k := scriptKey{round: r, receiver: receiver}
	if s.dropAll[k] {
		return nil
	}
	senders := s.drops[k]
	if len(senders) == 0 {
		return deliverable
	}
	kept := make([]sim.Transmission, 0, len(deliverable))
	for _, tx := range deliverable {
		if !senders[tx.Sender] {
			kept = append(kept, tx)
		}
	}
	return kept
}

// ForceCollision implements Adversary.
func (s *Script) ForceCollision(r sim.Round, receiver sim.NodeID, _ geo.Point) bool {
	return s.collide[scriptKey{round: r, receiver: receiver}]
}

// Partition splits the nodes into two groups and, before round Until, drops
// every message crossing the partition (footnote 2's interference scenario:
// p_i and p_j unable to communicate). Membership is by NodeID.
type Partition struct {
	GroupA map[sim.NodeID]bool
	Until  sim.Round
}

// NewPartition returns a Partition isolating ids from everyone else before
// round until.
func NewPartition(until sim.Round, ids ...sim.NodeID) *Partition {
	g := make(map[sim.NodeID]bool, len(ids))
	for _, id := range ids {
		g[id] = true
	}
	return &Partition{GroupA: g, Until: until}
}

// Filter implements Adversary.
func (p *Partition) Filter(r sim.Round, receiver sim.NodeID, _ geo.Point, deliverable []sim.Transmission) []sim.Transmission {
	if r >= p.Until {
		return deliverable
	}
	side := p.GroupA[receiver]
	kept := make([]sim.Transmission, 0, len(deliverable))
	for _, tx := range deliverable {
		if p.GroupA[tx.Sender] == side {
			kept = append(kept, tx)
		}
	}
	return kept
}

// ForceCollision implements Adversary.
func (p *Partition) ForceCollision(sim.Round, sim.NodeID, geo.Point) bool { return false }

// Compose chains adversaries: each Filter output feeds the next, and a
// forced collision from any member is forced. It is how a deployment spec
// stacks several jammers behind the medium's single Adversary slot; a
// Compose of stateless members is itself stateless, so the shard mediums
// may share it.
type Compose []Adversary

// Filter implements Adversary.
func (c Compose) Filter(r sim.Round, receiver sim.NodeID, at geo.Point, deliverable []sim.Transmission) []sim.Transmission {
	for _, a := range c {
		deliverable = a.Filter(r, receiver, at, deliverable)
	}
	return deliverable
}

// ForceCollision implements Adversary.
func (c Compose) ForceCollision(r sim.Round, receiver sim.NodeID, at geo.Point) bool {
	for _, a := range c {
		if a.ForceCollision(r, receiver, at) {
			return true
		}
	}
	return false
}
