package service

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"vinfra/internal/geo"
	"vinfra/internal/sim"
	"vinfra/internal/spec"
	"vinfra/internal/vi"
)

// maxEvents bounds each tenant's in-memory event log; older events are
// dropped from the front (their sequence numbers stay stable).
const maxEvents = 1024

var (
	errDeleted = errors.New("service: simulation deleted")
	// errFailed marks every error a failed tenant answers with; see guard.
	errFailed = errors.New("service: simulation failed")
)

// Event is one entry in a tenant's event log.
type Event struct {
	Seq    int    `json:"seq"`
	VRound int    `json:"vround"`
	Type   string `json:"type"`
	Detail string `json:"detail,omitempty"`
}

// SimStatus is the JSON status document of one simulation.
type SimStatus struct {
	Name    string `json:"name"`
	VRound  int    `json:"vround"`
	VRounds int    `json:"vrounds"`
	// Running reports an outstanding background run (POST run); steps also
	// happen synchronously via POST step.
	Running          bool    `json:"running"`
	VNodes           int     `json:"vnodes"`
	Devices          int     `json:"devices"`
	MeanAvailability float64 `json:"mean_availability"`
	Joins            int     `json:"joins"`
	Resets           int     `json:"resets"`
	Faults           int     `json:"faults"`
	// Failed is set once the simulation has panicked (an engine contract
	// violation, a bug in a node or a fault): it names the panic, the world
	// no longer steps, and only status, events, spec and delete still answer.
	Failed string `json:"failed,omitempty"`
}

// tenant is one named simulation. The spec.World is owned exclusively by
// the tenant's loop goroutine; handlers either send closures to the loop
// (do) or read the cached fields below under mu. The monitor is shared —
// vi.Monitor is safe to read concurrently with stepping.
type tenant struct {
	name string

	cmds chan command
	quit chan struct{} // closed on delete; stops the loop
	done chan struct{} // closed when the loop has exited

	mon  *vi.Monitor // concurrency-safe, shared with the loop
	locs []geo.Point // immutable after build

	mu       sync.Mutex
	effSpec  spec.Spec // effective spec, including injected faults
	vr       int
	target   int // background-run target; the loop steps while vr < target
	stats    sim.Stats
	partTime time.Duration
	joins    int
	resets   int
	stepWall time.Duration // cumulative wall time inside StepVRound
	stepped  int           // vrounds stepped by this process
	events   []Event
	nextSeq  int
	failed   error // the panic that ended this world, wrapping errFailed
}

// command is one closure for the loop goroutine and where its error goes.
type command struct {
	fn   func(*spec.World) error
	errc chan error
}

// newTenant wraps a built (and possibly restored) world and starts its
// loop goroutine.
func newTenant(name string, w *spec.World) *tenant {
	t := &tenant{
		name: name,
		cmds: make(chan command),
		quit: make(chan struct{}),
		done: make(chan struct{}),
		mon:  w.Mon,
		locs: w.Locs,
	}
	t.syncLocked(w) // loop not started yet; no contention
	go t.loop(w)
	return t
}

// loop owns the world: it drains commands, and between commands steps the
// world toward the background-run target.
func (t *tenant) loop(w *spec.World) {
	defer close(t.done)
	defer w.Eng.Close()
	for {
		if t.wantsStep(w) {
			select {
			case <-t.quit:
				return
			case c := <-t.cmds:
				c.errc <- t.guard(w, c.fn)
			default:
				t.guard(w, func(w *spec.World) error { t.stepOne(w); return nil })
			}
		} else {
			select {
			case <-t.quit:
				return
			case c := <-t.cmds:
				c.errc <- t.guard(w, c.fn)
			}
		}
	}
}

// guard runs fn against the world unless the tenant has failed, and turns a
// panic in fn into that failure: the engine panics on contract violations
// (a medium answering for the wrong number of nodes, a nil Node) and on
// whatever bug a node, a program or a fault carries, and one tenant's panic
// must not take the daemon and every other tenant with it. A panicked world
// may be torn mid-round, so it is never touched again: the panic value and
// stack go to the event log, any background run is cancelled, and this and
// every later command answer with the failure. (A panic on one of a parallel
// engine's helper goroutines is out of reach of any recover here.)
func (t *tenant) guard(w *spec.World, fn func(*spec.World) error) (err error) {
	t.mu.Lock()
	err = t.failed
	t.mu.Unlock()
	if err != nil {
		return err
	}
	defer func() {
		if p := recover(); p != nil {
			t.mu.Lock()
			t.failed = fmt.Errorf("%w at virtual round %d: panic: %v", errFailed, t.vr, p)
			t.target = 0
			t.eventLocked(t.vr, "failed", fmt.Sprintf("panic: %v\n%s", p, debug.Stack()))
			err = t.failed
			t.mu.Unlock()
		}
	}()
	return fn(w)
}

func (t *tenant) wantsStep(w *spec.World) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.target > w.VRound() && w.VRound() < w.VRounds()
}

// stepOne executes one timed virtual round on the loop goroutine and
// refreshes the cached status.
func (t *tenant) stepOne(w *spec.World) {
	start := time.Now()
	w.StepVRound()
	elapsed := time.Since(start)
	t.mu.Lock()
	t.stepWall += elapsed
	t.stepped++
	t.syncLocked(w)
	if t.target != 0 && (w.VRound() >= t.target || w.VRound() >= w.VRounds()) {
		t.target = 0
		t.eventLocked(w.VRound(), "run_done", "")
	}
	t.mu.Unlock()
}

// syncLocked refreshes the cached status from the world. Callers hold mu
// (or, in newTenant, exclusive ownership).
func (t *tenant) syncLocked(w *spec.World) {
	t.effSpec = w.Spec
	t.vr = w.VRound()
	t.stats = w.Eng.Stats()
	t.partTime = w.Eng.PartitionTime()
	t.joins = w.Joins()
	t.resets = w.Resets()
}

// do runs fn on the loop goroutine and returns its error; it fails with
// errDeleted once the tenant's loop has exited, and with the tenant's
// failure (errFailed) once the world has panicked.
func (t *tenant) do(fn func(*spec.World) error) error {
	errc := make(chan error, 1)
	select {
	case t.cmds <- command{fn, errc}:
	case <-t.done:
		return errDeleted
	}
	select {
	case err := <-errc:
		return err
	case <-t.done:
		return errDeleted
	}
}

// stop ends the loop (idempotent) and waits for it to exit.
func (t *tenant) stop() {
	select {
	case <-t.quit:
	default:
		close(t.quit)
	}
	<-t.done
}

// eventLocked appends to the bounded event log. Callers hold mu.
func (t *tenant) eventLocked(vr int, typ, detail string) {
	t.events = append(t.events, Event{Seq: t.nextSeq, VRound: vr, Type: typ, Detail: detail})
	t.nextSeq++
	if len(t.events) > maxEvents {
		t.events = t.events[len(t.events)-maxEvents:]
	}
}

// event appends to the event log.
func (t *tenant) event(vr int, typ, detail string) {
	t.mu.Lock()
	t.eventLocked(vr, typ, detail)
	t.mu.Unlock()
}

// eventsFrom returns a copy of the retained events with Seq >= from.
func (t *tenant) eventsFrom(from int) []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := []Event{}
	for _, e := range t.events {
		if e.Seq >= from {
			out = append(out, e)
		}
	}
	return out
}

// status builds the JSON status document from the cached fields.
func (t *tenant) status() SimStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	failed := ""
	if t.failed != nil {
		failed = t.failed.Error()
	}
	return SimStatus{
		Failed:           failed,
		Name:             t.name,
		VRound:           t.vr,
		VRounds:          t.effSpec.VRounds,
		Running:          t.target > t.vr,
		VNodes:           len(t.locs),
		Devices:          t.effSpec.TotalDevices(),
		MeanAvailability: t.mon.SummaryThrough(len(t.locs), t.vr).MeanAvailability,
		Joins:            t.joins,
		Resets:           t.resets,
		Faults:           len(t.effSpec.Faults),
	}
}

// step synchronously executes up to n virtual rounds (clamped to the
// horizon) and returns the new cursor.
func (t *tenant) step(n int) (int, error) {
	if n < 1 {
		return 0, fmt.Errorf("vrounds must be at least 1 (got %d)", n)
	}
	var vr int
	err := t.do(func(w *spec.World) error {
		for i := 0; i < n && w.VRound() < w.VRounds(); i++ {
			t.stepOne(w)
		}
		vr = w.VRound()
		return nil
	})
	if err != nil {
		return 0, err
	}
	t.event(vr, "stepped", fmt.Sprintf("+%d", n))
	return vr, nil
}

// run starts (or retargets) a background run toward target (0 means the
// spec horizon). The loop steps between commands until the target is hit.
func (t *tenant) run(target int) error {
	return t.do(func(w *spec.World) error {
		if target == 0 {
			target = w.VRounds()
		}
		if target < w.VRound() || target > w.VRounds() {
			return fmt.Errorf("target_vround %d outside [%d, %d]", target, w.VRound(), w.VRounds())
		}
		t.mu.Lock()
		t.target = target
		t.eventLocked(w.VRound(), "run_started", fmt.Sprintf("target=%d", target))
		t.mu.Unlock()
		return nil
	})
}

// pause cancels an outstanding background run at the next virtual-round
// boundary.
func (t *tenant) pause() error {
	return t.do(func(w *spec.World) error {
		t.mu.Lock()
		if t.target > w.VRound() {
			t.eventLocked(w.VRound(), "paused", "")
		}
		t.target = 0
		t.mu.Unlock()
		return nil
	})
}
