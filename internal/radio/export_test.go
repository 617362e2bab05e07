package radio

import "vinfra/internal/sim"

// The delivery paths an external test can pin a medium to. Nothing outside
// this package's tests can: a production medium chooses per round.
const (
	PathScan      = pathScan
	PathGrid      = pathGrid
	PathReceivers = pathReceivers
)

// Forced is MustMedium with the delivery path pinned.
func Forced(cfg Config, p path) *Medium {
	m := MustMedium(cfg)
	m.force = p
	return m
}

// Work is the delivery work a medium has counted since it was built:
// measurements, never part of a snapshot.
type Work struct {
	Examined  int // candidates the reception loop looked at
	Filtered  int // Adversary.Filter calls
	Concluded int // receivers concluded one by one, not counted or cleared
}

func (m *Medium) Work() Work {
	return Work{Examined: m.examined, Filtered: m.filtered, Concluded: m.concluded}
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
