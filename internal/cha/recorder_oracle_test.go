package cha

import (
	"fmt"
	"sync"

	"vinfra/internal/sim"
)

// mapRecorder is the theorem checker as it stood before the window
// representation: five maps keyed by instance, two of them nested per
// node, and a liveness scan over node × instance. It is kept verbatim
// (renamed, nothing else) as the oracle the windowed Recorder is held to in
// TestRecorderMatchesOracle and FuzzRecorderMatchesOracle.
type mapRecorder struct {
	mu sync.Mutex

	// proposals is keyed by the proposal's byte content (Value carries a
	// slice and cannot be a map key itself).
	proposals map[Instance]map[string]bool
	// canonical is the agreed value-or-⊥ per position, fixed by the first
	// output history covering it. bot marks an agreed ⊥.
	canonical map[Instance]canonEntry
	// decided[id][k] records whether node id's output for instance k was a
	// history (true) or ⊥ (false).
	decided map[sim.NodeID]map[Instance]bool
	colors  map[Instance]*colorRange
	crashed map[sim.NodeID]bool
	lastK   Instance

	agreementViolations int
	firstAgreement      string
	validityViolations  int
	firstValidity       string
	outputs             int
	decidedCount        int
}

type canonEntry struct {
	val Value
	bot bool
}

type colorRange struct {
	min, max Color
}

// newMapRecorder returns an empty Recorder.
func newMapRecorder() *mapRecorder {
	return &mapRecorder{
		proposals: make(map[Instance]map[string]bool),
		canonical: make(map[Instance]canonEntry),
		decided:   make(map[sim.NodeID]map[Instance]bool),
		colors:    make(map[Instance]*colorRange),
		crashed:   make(map[sim.NodeID]bool),
	}
}

// WrapPropose wraps a proposal source so proposals are recorded for the
// validity check.
func (rec *mapRecorder) WrapPropose(propose func(Instance) Value) func(Instance) Value {
	return func(k Instance) Value {
		v := propose(k)
		rec.mu.Lock()
		if rec.proposals[k] == nil {
			rec.proposals[k] = make(map[string]bool)
		}
		rec.proposals[k][v.String()] = true
		rec.mu.Unlock()
		return v
	}
}

// OutputFunc returns an OnOutput callback recording node id's outputs.
func (rec *mapRecorder) OutputFunc(id sim.NodeID) func(Output) {
	return func(o Output) {
		rec.Record(id, o)
	}
}

// Record registers one instance output from one node.
func (rec *mapRecorder) Record(id sim.NodeID, o Output) {
	rec.mu.Lock()
	defer rec.mu.Unlock()

	if o.Instance > rec.lastK {
		rec.lastK = o.Instance
	}
	rec.outputs++

	if rec.decided[id] == nil {
		rec.decided[id] = make(map[Instance]bool)
	}
	rec.decided[id][o.Instance] = o.Decided()

	if cr, ok := rec.colors[o.Instance]; ok {
		if o.Color < cr.min {
			cr.min = o.Color
		}
		if o.Color > cr.max {
			cr.max = o.Color
		}
	} else {
		rec.colors[o.Instance] = &colorRange{min: o.Color, max: o.Color}
	}

	if !o.Decided() {
		return
	}
	rec.decidedCount++
	h := o.History()
	// Positions at or below the output's GC floor were folded into a
	// checkpoint and are legitimately absent from the suffix history.
	for k := o.Floor + 1; k <= h.Top(); k++ {
		v, ok := h.At(k)
		entry := canonEntry{val: v, bot: !ok}
		prev, seen := rec.canonical[k]
		if !seen {
			rec.canonical[k] = entry
			if ok {
				rec.checkValidity(k, v, id)
			}
			continue
		}
		if prev.bot != entry.bot || !prev.val.Equal(entry.val) {
			rec.agreementViolations++
			if rec.firstAgreement == "" {
				rec.firstAgreement = fmt.Sprintf(
					"node %d output for instance %d: position %d = %s, previously agreed %s",
					id, o.Instance, k, renderEntry(entry), renderEntry(prev))
			}
		}
	}
}

func renderEntry(e canonEntry) string {
	if e.bot {
		return "⊥"
	}
	return fmt.Sprintf("%q", e.val.String())
}

func (rec *mapRecorder) checkValidity(k Instance, v Value, id sim.NodeID) {
	if !rec.proposals[k][v.String()] {
		rec.validityViolations++
		if rec.firstValidity == "" {
			rec.firstValidity = fmt.Sprintf(
				"node %d output value %q for instance %d, which nobody proposed", id, v.String(), k)
		}
	}
}

// MarkCrashed excludes node id from the liveness check (the guarantee
// covers non-failed nodes only).
func (rec *mapRecorder) MarkCrashed(id sim.NodeID) {
	rec.mu.Lock()
	rec.crashed[id] = true
	rec.mu.Unlock()
}

// Report computes the final report. It may be called repeatedly; recording
// may continue afterwards.
func (rec *mapRecorder) Report() Report {
	rec.mu.Lock()
	defer rec.mu.Unlock()

	rep := Report{
		Instances:           rec.lastK,
		AgreementViolations: rec.agreementViolations,
		FirstAgreement:      rec.firstAgreement,
		ValidityViolations:  rec.validityViolations,
		FirstValidity:       rec.firstValidity,
	}
	if rec.outputs > 0 {
		rep.DecidedRate = float64(rec.decidedCount) / float64(rec.outputs)
	}

	for _, cr := range rec.colors {
		spread := int(cr.max) - int(cr.min)
		if spread > rep.MaxColorSpread {
			rep.MaxColorSpread = spread
		}
		if spread > 1 {
			rep.ColorSpreadViolations++
		}
	}

	rep.Stabilization, rep.LivenessOK = rec.stabilization()
	return rep
}

// stabilization finds the smallest k_st such that (1) every non-crashed
// node's output is a history for every instance >= k_st, and (2) the agreed
// history includes every position >= k_st (no ⊥ from k_st to the end).
func (rec *mapRecorder) stabilization() (Instance, bool) {
	if rec.lastK == 0 {
		return 0, false
	}
	kst := Instance(1)
	// Positions: the canonical assignment must be non-⊥ from kst on.
	for k := rec.lastK; k >= 1; k-- {
		e, ok := rec.canonical[k]
		if !ok || e.bot {
			kst = k + 1
			break
		}
	}
	// Node outputs: every non-crashed node decided everything from kst on.
	for id, dec := range rec.decided {
		if rec.crashed[id] {
			continue
		}
		for k := rec.lastK; k >= kst; k-- {
			if !dec[k] {
				kst = k + 1
				break
			}
		}
	}
	if kst > rec.lastK {
		return 0, false
	}
	return kst, true
}
