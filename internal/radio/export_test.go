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
