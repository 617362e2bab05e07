package cha

// Equal reports whether two ballots carry the same value and prev pointer.
// (Ballot holds a byte-backed Value, so == does not apply.)
func (b Ballot) Equal(o Ballot) bool {
	return b.Prev == o.Prev && b.V.Equal(o.V)
}

// PrefixEqual reports whether h and o agree on every instance up to and
// including k (both the included values and the ⊥ positions) — the
// Agreement relation of Section 3.2.
func (h *History) PrefixEqual(o *History, k Instance) bool {
	for i := Instance(1); i <= k; i++ {
		v1, ok1 := h.At(i)
		v2, ok2 := o.At(i)
		if ok1 != ok2 || !v1.Equal(v2) {
			return false
		}
	}
	return true
}

// MapRecorder is the map-based Recorder the window replaced, kept as its
// oracle in recorder_oracle_test.go.
type MapRecorder = mapRecorder

func NewMapRecorder() *MapRecorder { return newMapRecorder() }

// Retained returns the number of positions the Recorder's window holds.
func (rec *Recorder) Retained() int {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return len(rec.win)
}

// CountHistories makes every core count the histories it writes out (true)
// or stop counting (false), and HistoriesBuilt returns the count so far: a
// close, an estimate or a copy a consumer asked for, each one history. Like
// the engine's test switches it is a package variable, so tests that use it
// must not run in parallel.
func CountHistories(on bool) { countBuilt = on }

func HistoriesBuilt() int64 { return built.Load() }
