package cha

import (
	"slices"
	"sort"
)

// mapCore and mapHistory are the agreement core and history as they stood
// before the window representation: per-instance state in maps keyed by
// instance, swept on GC, and a fresh map per calculated history. They are
// kept verbatim (renamed, nothing else) as the oracle the window Core is
// held to in TestWindowCoreMatchesMapCore.
type mapCore struct {
	k    Instance
	prev Instance

	status  map[Instance]Color // absent = green (Figure 1 line 7)
	ballots map[Instance]Ballot

	floor Instance

	BrokenChains int
}

func newMapCore() *mapCore {
	return &mapCore{
		status:  make(map[Instance]Color),
		ballots: make(map[Instance]Ballot),
	}
}

func (c *mapCore) Instance() Instance { return c.k }
func (c *mapCore) Prev() Instance     { return c.prev }
func (c *mapCore) Floor() Instance    { return c.floor }

func (c *mapCore) Status(k Instance) Color {
	if s, ok := c.status[k]; ok {
		return s
	}
	return Green
}

func (c *mapCore) downgrade(k Instance, to Color) {
	c.status[k] = minColor(to, c.Status(k))
}

func (c *mapCore) Begin(k Instance, v Value) Ballot {
	if k <= c.k {
		panic("cha: Begin called with non-increasing instance")
	}
	c.k = k
	return Ballot{V: v, Prev: c.prev}
}

func (c *mapCore) ObserveBallots(received []Ballot, collision bool) {
	if len(received) == 0 || collision {
		c.downgrade(c.k, Red)
		return
	}
	c.ballots[c.k] = MinBallot(received)
}

func (c *mapCore) NeedVeto1() bool { return c.Status(c.k) == Red }

func (c *mapCore) ObserveVeto1(sawVeto, collision bool) {
	if sawVeto || collision {
		c.downgrade(c.k, Orange)
	}
}

func (c *mapCore) NeedVeto2() bool { return c.Status(c.k) <= Orange }

// mapOutput is Output with the oracle's history type.
type mapOutput struct {
	Instance Instance
	History  *mapHistory
	Color    Color
	Floor    Instance
}

func (c *mapCore) ObserveVeto2(sawVeto, collision bool) mapOutput {
	if sawVeto || collision {
		c.downgrade(c.k, Yellow)
	}
	st := c.Status(c.k)
	if st.Good() {
		c.prev = c.k
	}
	h := c.calculateHistory(c.k, c.prev)
	out := mapOutput{Instance: c.k, Color: st, Floor: c.floor}
	if st == Green {
		out.History = h
	}
	return out
}

func (c *mapCore) CalculateHistory() *mapHistory {
	return c.calculateHistory(c.k, c.prev)
}

func (c *mapCore) calculateHistory(instance, prev Instance) *mapHistory {
	h := &mapHistory{top: instance, vals: make(map[Instance]Value)}
	p := prev
	for k := instance; k > c.floor; k-- {
		if k != p {
			continue
		}
		b, ok := c.ballots[k]
		if !ok {
			c.BrokenChains++
			break
		}
		h.vals[k] = b.V
		p = b.Prev
	}
	return h
}

func (c *mapCore) Retained() int {
	return len(c.status) + len(c.ballots)
}

func (c *mapCore) GC(upTo Instance) int {
	removed := 0
	for k := range c.status {
		if k < upTo {
			delete(c.status, k)
			removed++
		}
	}
	for k := range c.ballots {
		if k < upTo {
			delete(c.ballots, k)
			removed++
		}
	}
	if upTo-1 > c.floor {
		c.floor = upTo - 1
	}
	return removed
}

func (c *mapCore) ResetAt(k Instance) {
	c.k = k
	c.prev = 0
	c.floor = k
	c.status = make(map[Instance]Color)
	c.ballots = make(map[Instance]Ballot)
}

func (c *mapCore) Snapshot() CoreSnapshot {
	s := CoreSnapshot{Floor: c.floor, K: c.k, Prev: c.prev}
	s.BallotKeys = sortedKeys(c.ballots)
	s.Ballots = make([]Ballot, len(s.BallotKeys))
	for i, k := range s.BallotKeys {
		s.Ballots[i] = c.ballots[k]
	}
	s.StatusKeys = sortedKeys(c.status)
	s.Statuses = make([]Color, len(s.StatusKeys))
	for i, k := range s.StatusKeys {
		s.Statuses[i] = c.status[k]
	}
	return s
}

func restoreMapCore(s CoreSnapshot) *mapCore {
	c := newMapCore()
	c.floor = s.Floor
	c.k = s.K
	c.prev = s.Prev
	for i, k := range s.BallotKeys {
		c.ballots[k] = s.Ballots[i]
	}
	for i, k := range s.StatusKeys {
		c.status[k] = s.Statuses[i]
	}
	return c
}

func sortedKeys[V any](m map[Instance]V) []Instance {
	keys := make([]Instance, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

type mapHistory struct {
	top  Instance
	vals map[Instance]Value
}

func newMapHistory(top Instance, vals map[Instance]Value) *mapHistory {
	cp := make(map[Instance]Value, len(vals))
	for k, v := range vals {
		if k >= 1 && k <= top {
			cp[k] = v
		}
	}
	return &mapHistory{top: top, vals: cp}
}

func (h *mapHistory) Top() Instance { return h.top }

func (h *mapHistory) At(k Instance) (Value, bool) {
	v, ok := h.vals[k]
	return v, ok
}

func (h *mapHistory) Includes(k Instance) bool {
	_, ok := h.vals[k]
	return ok
}

func (h *mapHistory) Included() []Instance {
	out := make([]Instance, 0, len(h.vals))
	for k := range h.vals {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (h *mapHistory) Len() int { return len(h.vals) }

func (h *mapHistory) DigestRange(from, to Instance, prior uint64) uint64 {
	d := prior
	for i := from; i <= to; i++ {
		v, ok := h.At(i)
		d = foldPosition(d, i, v, ok)
	}
	return d
}

func (h *mapHistory) Digest() uint64 { return h.DigestRange(1, h.top, 0) }
