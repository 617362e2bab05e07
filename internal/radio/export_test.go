package radio

// The delivery paths an external test can pin a medium to. Nothing outside
// this package's tests can: a production medium chooses per round.
const (
	PathScan = pathScan
	PathGrid = pathGrid
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
	Examined int // candidates the reception loop looked at
	Filtered int // Adversary.Filter calls
}

func (m *Medium) Work() Work {
	return Work{Examined: m.examined, Filtered: m.filtered}
}
