package faults

import "vinfra/internal/radio"

// hashKeys is radio.HashKeys, the deterministic stack's single keyed-hash
// primitive (SplitMix64 folding): every adversary draw is a pure function
// of its keys, so adversaries carry no mutable state and are safe for the
// concurrent, order-free use shard mediums sharing them make of them. Sharing
// the primitive with radio keeps the two layers' determinism contracts in
// lockstep by construction.
var hashKeys = radio.HashKeys

// u01 is radio.U01, the matching hash-to-uniform mapping.
var u01 = radio.U01
