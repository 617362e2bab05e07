package sim

import (
	"os"
	"runtime"
	"testing"
	"unsafe"
)

// RaceEnabled lets the external test package skip its allocation gates under
// the race detector, like the in-package ones.
const RaceEnabled = raceEnabled

// KernelBuilt says the build has the packed mobility kernel: amd64, without
// the race detector. Elsewhere the scalar step takes every node.
const KernelBuilt = runtime.GOARCH == "amd64" && !raceEnabled

// SetSleepOff makes Env.SleepUntil a no-op on every engine (true) or
// restores it (false). Sleep-off is how the engine behaved before nodes
// could sleep: the oracle the sleep tests compare against. It is a package
// variable so a test can switch it under worlds that hide their engine;
// tests that use it must not run in parallel.
func SetSleepOff(off bool) { sleepOff = off }

// SetKernelOff makes the packed mobility kernel decline every pair (true), so
// the scalar step moves every node, or lets it run again (false): the oracle
// the kernel is held to. Like SetSleepOff it is a package variable, so tests
// that use it must not run in parallel.
func SetKernelOff(off bool) { kernelOff = off }

// SetQuietOff makes every round ask the medium (true), as the engine did
// before it knew quiet rounds, or lets it skip the medium in a quiet one
// again (false): the oracle quiet rounds are held to. Like SetSleepOff it is
// a package variable, so tests that use it must not run in parallel.
func SetQuietOff(off bool) { quietOff = off }

// SetReserveOff makes Engine.Reserve a no-op (true), so a world's per-node
// slices grow as its nodes attach, or lets it size them again (false): the
// oracle Reserve is held to. Like SetSleepOff it is a package variable, so
// tests that use it must not run in parallel.
func SetReserveOff(off bool) { reserveOff = off }

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
	RouseWords   int  // bitmap words rouse has looked at: the nonzero words of on and all of sum, per relist
	Relists      int  // times rouse listed the awake list afresh
	Packed       int  // node-steps the packed mobility kernel took
	Receptions   int  // receptions computed: awake nodes, summed over the rounds that are not quiet
	Transmits    int  // Transmit calls: the awake nodes, summed over rounds, less the listeners passed by
	Woken        int  // listeners a reception woke: Receive calls made to a listener
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
		Relists:      e.relists,
		Packed:       int(e.packed.Load()),
		Receptions:   e.heard,
		Transmits:    e.polled - int(e.muted.Load()),
		Woken:        int(e.woken.Load()),
		ScratchBytes: cap(e.txs)*int(unsafe.Sizeof(Transmission{})) +
			cap(e.txSlots)*int(unsafe.Sizeof(Message(nil))) +
			cap(e.awakeBuf)*int(unsafe.Sizeof((*nodeState)(nil))) +
			cap(e.plane.infos[0])*int(unsafe.Sizeof(NodeInfo{})),
	}
}
