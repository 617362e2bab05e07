package faults

import "vinfra/internal/radio"

// hashKeys is radio.HashKeys, the deterministic stack's single keyed-hash
// primitive (SplitMix64 folding): every adversary draw is a pure function
// of its keys, so adversaries carry no mutable state and are safe for the
// concurrent, order-free use shard mediums sharing them make of them. Sharing
// the primitive with radio keeps the two layers' determinism contracts in
// lockstep by construction. It is a function, not a variable holding one:
// called through a variable the keys escape, and every draw — one per alive
// node per strike — allocated its argument slice.
func hashKeys(keys ...int64) uint64 { return radio.HashKeys(keys...) }

// u01 is radio.U01, the matching hash-to-uniform mapping.
func u01(h uint64) float64 { return radio.U01(h) }
