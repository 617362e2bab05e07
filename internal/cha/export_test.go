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
