package sim

import (
	"os"
	"testing"
	"unsafe"
)

// RaceEnabled lets the external test package skip its allocation gates under
// the race detector, like the in-package ones.
const RaceEnabled = raceEnabled

// SetSleepOff makes Env.SleepUntil a no-op on every engine (true) or
// restores it (false). Sleep-off is how the engine behaved before nodes
// could sleep: the oracle the sleep tests compare against. It is a package
// variable so a test can switch it under worlds that hide their engine;
// tests that use it must not run in parallel.
func SetSleepOff(off bool) { sleepOff = off }

// ProductionGrain is what grain is outside this package's tests.
var ProductionGrain = grain

// TestMain runs the package's tests with the grain lowered to one node, so
// the small worlds most of them build — a few dozen nodes under WithWorkers —
// still run their chunks on helper goroutines, under the race detector too:
// at the production grain every one of them would run inline. Tests about
// the grain itself restore it with SetGrain.
func TestMain(m *testing.M) {
	grain = 1
	os.Exit(m.Run())
}

// SetGrain sets the least chunk size worth a hand-off and returns a function
// that puts the previous one back. Like SetSleepOff it is a package variable,
// so tests that use it must not run in parallel.
func SetGrain(n int) (restore func()) {
	old := grain
	grain = n
	return func() { grain = old }
}

// Counts is the engine's counted work and the room its per-round buffers
// take, for tests outside the package: measurements, like PartitionTime.
type Counts struct {
	Handoffs     int  // chunks given to a helper goroutine
	Pooled       bool // the worker runtime is running
	RouseEntries int  // list entries and filed nodes rouse has looked at
	RouseWords   int  // bitmap words rouse has looked at: one per 64 nodes ever attached, per relist
	// ScratchBytes is the capacity of the buffers a round fills and empties —
	// the transmission list, the Transmit slots, the awake list, the one-shard
	// receiver view — which should follow what is alive, not what ever was.
	ScratchBytes int
}

func (e *Engine) Counts() Counts {
	return Counts{
		Handoffs:     e.handoffs,
		Pooled:       e.pool != nil,
		RouseEntries: e.rouseWork - e.rouseWords,
		RouseWords:   e.rouseWords,
		ScratchBytes: cap(e.txs)*int(unsafe.Sizeof(Transmission{})) +
			cap(e.txSlots)*int(unsafe.Sizeof(Message(nil))) +
			cap(e.awakeBuf)*int(unsafe.Sizeof((*nodeState)(nil))) +
			cap(e.plane.infos[0])*int(unsafe.Sizeof(NodeInfo{})),
	}
}
