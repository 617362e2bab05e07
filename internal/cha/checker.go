package cha

import (
	"fmt"
	"slices"
	"sync"

	"vinfra/internal/sim"
)

// Recorder observes a CHA execution — proposals, outputs, and final colors
// from every node — and checks the problem's guarantees (Section 3.2:
// Validity, Agreement, Liveness) plus the one-shade color invariant
// (Property 4 / Lemma 5), against a canonical per-position assignment that
// the first output history covering a position fixes.
//
// The state is a window, not a log: position (and instance) k lives at
// index k − base − 1 of one slice, base being the lowest checkpoint floor
// among the live nodes (no later output reaches below it), beside running
// totals and one record per node; Report is O(window + nodes). The input
// contract, which CHA replicas keep: a node is registered (OutputFunc)
// before its first output, its floor holding the window from then on; its
// outputs arrive in increasing instance order, with floors below the
// instance that never fall; a node marked crashed outputs nothing more.
//
// Recorder is safe for concurrent use (the engine may fan out node callbacks
// across goroutines); its counts follow arrival order (see Report).
type Recorder struct {
	mu sync.Mutex

	base  Instance   // every position at or below base has been folded
	win   []posCheck // win[i] is position (and instance) base+1+i
	nodes map[sim.NodeID]*nodeCheck
	lastK Instance

	foldedGap        Instance // highest folded position that was ⊥ or never covered
	maxSpread        int      // largest color spread of an instance so far
	spreadViolations int      // instances whose spread exceeded one shade

	agreementViolations int
	firstAgreement      string
	validityViolations  int
	firstValidity       string
	outputs             int
	decidedCount        int
}

// posCheck is what the Recorder keeps of position k: the values proposed for
// instance k, the agreed value-or-⊥ at position k, and the range of colors
// output for instance k.
type posCheck struct {
	proposals []Value
	val       Value // the agreed value, or ⊥ if bot
	bot       bool
	covered   bool // an output history fixed val and bot
	colored   bool // some node output instance k: lo..hi is its color range
	lo, hi    Color
}

// nodeCheck is what the Recorder keeps of one node.
type nodeCheck struct {
	last      Instance // last instance output; 0 = none yet
	undecided Instance // last instance output ⊥ or skipped
	floor     Instance
	crashed   bool
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{nodes: make(map[sim.NodeID]*nodeCheck)}
}

// at returns position k's entry, extending the window up to it, or nil when
// k is at or below base.
func (rec *Recorder) at(k Instance) *posCheck {
	i := int(k - rec.base - 1)
	if i < 0 {
		return nil
	}
	for len(rec.win) <= i {
		rec.win = append(rec.win, posCheck{})
	}
	return &rec.win[i]
}

// node returns node id's record, registering it at base.
func (rec *Recorder) node(id sim.NodeID) *nodeCheck {
	n := rec.nodes[id]
	if n == nil {
		n = &nodeCheck{floor: rec.base}
		rec.nodes[id] = n
	}
	return n
}

// WrapPropose wraps a proposal source so proposals are recorded for the
// validity check.
func (rec *Recorder) WrapPropose(propose func(Instance) Value) func(Instance) Value {
	return func(k Instance) Value {
		v := propose(k)
		rec.mu.Lock()
		if c := rec.at(k); c != nil && !slices.ContainsFunc(c.proposals, v.Equal) {
			c.proposals = append(c.proposals, v)
		}
		rec.mu.Unlock()
		return v
	}
}

// OutputFunc registers node id and returns an OnOutput callback recording
// its outputs.
func (rec *Recorder) OutputFunc(id sim.NodeID) func(Output) {
	rec.mu.Lock()
	rec.node(id)
	rec.mu.Unlock()
	return func(o Output) {
		rec.Record(id, o)
	}
}

// Record registers one instance output from one node.
func (rec *Recorder) Record(id sim.NodeID, o Output) {
	rec.mu.Lock()
	defer rec.mu.Unlock()

	rec.lastK = max(rec.lastK, o.Instance)
	rec.outputs++

	n := rec.node(id)
	if !o.Decided() {
		n.undecided = o.Instance
	} else if o.Instance > n.last+1 {
		n.undecided = o.Instance - 1
	}
	n.last = o.Instance

	if c := rec.at(o.Instance); c != nil {
		if !c.colored {
			c.lo, c.hi, c.colored = o.Color, o.Color, true
		}
		was := c.hi - c.lo
		c.lo, c.hi = min(c.lo, o.Color), max(c.hi, o.Color)
		rec.maxSpread = max(rec.maxSpread, int(c.hi-c.lo))
		if c.hi-c.lo > 1 && was <= 1 {
			rec.spreadViolations++
		}
	}

	if o.Decided() {
		rec.decidedCount++
		rec.cover(id, o)
	}
	if o.Floor > n.floor {
		held := n.floor == rec.base
		n.floor = o.Floor
		if held {
			rec.slide()
		}
	}
}

// cover checks each position of a decided output's history against the
// canonical assignment, fixing those it is the first to cover. Positions at
// or below the output's GC floor were folded into a checkpoint and are
// legitimately absent from the suffix history.
func (rec *Recorder) cover(id sim.NodeID, o Output) {
	h := o.History()
	for k := max(o.Floor, rec.base) + 1; k <= h.Top(); k++ {
		v, ok := h.At(k)
		c := rec.at(k)
		if !c.covered {
			c.val, c.bot, c.covered = v, !ok, true
			if ok && !slices.ContainsFunc(c.proposals, v.Equal) {
				rec.validityViolations++
				if rec.firstValidity == "" {
					rec.firstValidity = fmt.Sprintf(
						"node %d output value %q for instance %d, which nobody proposed", id, v.String(), k)
				}
			}
			continue
		}
		if c.bot == ok || !c.val.Equal(v) {
			rec.agreementViolations++
			if rec.firstAgreement == "" {
				rec.firstAgreement = fmt.Sprintf(
					"node %d output for instance %d: position %d = %s, previously agreed %s",
					id, o.Instance, k, render(v, ok), render(c.val, !c.bot))
			}
		}
	}
}

func render(v Value, ok bool) string {
	if !ok {
		return "⊥"
	}
	return fmt.Sprintf("%q", v.String())
}

// MarkCrashed excludes node id from the liveness check (the guarantee
// covers non-failed nodes only) and from holding the window back.
func (rec *Recorder) MarkCrashed(id sim.NodeID) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.node(id).crashed = true
	rec.slide()
}

// slide folds every position at or below the lowest floor among the live
// nodes into the running totals and drops it from the window.
func (rec *Recorder) slide() {
	lo, live := Instance(0), false
	for _, n := range rec.nodes {
		if !n.crashed && (!live || n.floor < lo) {
			lo, live = n.floor, true
		}
	}
	if !live || lo <= rec.base {
		return
	}
	rec.at(lo)
	drop := int(lo - rec.base)
	for i, c := range rec.win[:drop] {
		if !c.covered || c.bot {
			rec.foldedGap = rec.base + 1 + Instance(i)
		}
	}
	kept := copy(rec.win, rec.win[drop:])
	clear(rec.win[kept:])
	rec.win = rec.win[:kept]
	rec.base = lo
}

// Report summarizes the recorded execution against the CHA guarantees.
// Its violation counts are judged against the first history covering each
// position, so they follow the order outputs arrive in (NodeID order on the
// engine's sequential path): outputs A = "v", B = ⊥, C = ⊥ at one position
// count 2 agreement violations in the order A, B, C but 1 in B, A, C.
type Report struct {
	// Instances is the highest instance any node completed.
	Instances Instance
	// AgreementViolations counts the (output, position) pairs at which an
	// output history disagreed with the position's first covering history
	// (must be 0 — Theorem 10).
	AgreementViolations int
	FirstAgreement      string
	// ValidityViolations counts the positions whose value, as first
	// covered, nobody proposed (must be 0 — Theorem 13).
	ValidityViolations int
	FirstValidity      string
	// MaxColorSpread is the largest per-instance color spread across nodes
	// (must be <= 1 — Property 4 / Lemma 5).
	MaxColorSpread int
	// ColorSpreadViolations counts instances whose spread exceeded one
	// shade.
	ColorSpreadViolations int
	// Stabilization is the smallest instance k_st satisfying the Liveness
	// clause for all non-crashed nodes, or 0 if none exists
	// (Theorem 12).
	Stabilization Instance
	// LivenessOK reports whether a stabilization instance exists.
	LivenessOK bool
	// DecidedRate is the fraction of recorded outputs that were histories
	// rather than ⊥.
	DecidedRate float64
}

// Violations returns a human-readable summary of all violations, or ""
// if the execution satisfied every checked property.
func (r Report) Violations() string {
	s := ""
	if r.AgreementViolations > 0 {
		s += fmt.Sprintf("agreement x%d (%s); ", r.AgreementViolations, r.FirstAgreement)
	}
	if r.ValidityViolations > 0 {
		s += fmt.Sprintf("validity x%d (%s); ", r.ValidityViolations, r.FirstValidity)
	}
	if r.ColorSpreadViolations > 0 {
		s += fmt.Sprintf("color-spread x%d (max %d); ", r.ColorSpreadViolations, r.MaxColorSpread)
	}
	if !r.LivenessOK {
		s += "liveness: no stabilization instance; "
	}
	return s
}

// Report computes the final report. It may be called repeatedly; recording
// may continue afterwards.
func (rec *Recorder) Report() Report {
	rec.mu.Lock()
	defer rec.mu.Unlock()

	rep := Report{
		Instances:             rec.lastK,
		AgreementViolations:   rec.agreementViolations,
		FirstAgreement:        rec.firstAgreement,
		ValidityViolations:    rec.validityViolations,
		FirstValidity:         rec.firstValidity,
		MaxColorSpread:        rec.maxSpread,
		ColorSpreadViolations: rec.spreadViolations,
	}
	if rec.outputs > 0 {
		rep.DecidedRate = float64(rec.decidedCount) / float64(rec.outputs)
	}
	rep.Stabilization, rep.LivenessOK = rec.stabilization()
	return rep
}

// stabilization finds the smallest k_st such that (1) every non-crashed
// node's output is a history for every instance >= k_st, and (2) the agreed
// history includes every position >= k_st (no ⊥ from k_st to the end).
func (rec *Recorder) stabilization() (Instance, bool) {
	if rec.lastK == 0 {
		return 0, false
	}
	// Positions: the canonical assignment must be non-⊥ from kst on.
	kst := rec.foldedGap + 1
	for k := rec.lastK; k > rec.base; k-- {
		if c := &rec.win[k-rec.base-1]; !c.covered || c.bot {
			kst = k + 1
			break
		}
	}
	// Node outputs: every non-crashed node decided everything from kst on.
	for _, n := range rec.nodes {
		switch {
		case n.crashed || n.last == 0:
		case n.last < rec.lastK:
			kst = rec.lastK + 1
		default:
			kst = max(kst, n.undecided+1)
		}
	}
	if kst > rec.lastK {
		return 0, false
	}
	return kst, true
}
