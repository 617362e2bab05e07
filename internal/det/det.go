// Package det holds the deterministic-randomness primitives of the whole
// stack. Every layer that needs randomness — the radio medium's gray-zone
// and detector-noise draws, the internal/faults adversaries, per-node
// protocol randomness in the sim engine, experiment scatter — derives it
// from the two primitives here, so the determinism contract ("all
// randomness is a pure function of (seed, round, node/cell)") is enforced
// in one place and cannot drift apart across copies:
//
//   - HashKeys folds explicit keys through the SplitMix64 finalizer into
//     one well-spread 64-bit value. A call site that can name all its keys
//     (seed, round, receiver, …) should use HashKeys directly: the draw is
//     then independent of the order call sites execute in, which is what
//     makes the parallel shards byte-identical to a sequential run.
//   - Stream is a seeded SplitMix64 sequence for call sites that need a
//     series of draws under an already-fixed call order (a node's protocol
//     draws within its own round slots). Seed a Stream with HashKeys-style
//     keys; never from wall-clock time or any other ambient source.
//
// The tools/detlint static analyzers (globalrand, seedflow) treat HashKeys
// and NewStream as the blessed sources of randomness; raw math/rand use in
// deterministic packages is a lint error.
//
// det is intentionally dependency-free so that every package — including
// internal/sim, which the higher layers import — can use it.
package det

// mix64 is the SplitMix64 finalizer, used to spread structured seed inputs.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// golden is the SplitMix64 increment (2^64 / φ, odd).
const golden = 0x9e3779b97f4a7c15

// HashKeys folds keys through the SplitMix64 finalizer into one well-spread
// value. It is the single keyed-hash primitive of the deterministic stack:
// the radio medium, RandomLoss and the internal/faults adversaries call it
// directly.
func HashKeys(keys ...int64) uint64 {
	var h uint64
	for _, k := range keys {
		h = mix64(h ^ (uint64(k) + golden))
	}
	return h
}

// U01 maps a HashKeys (or Stream) value to a uniform draw in [0, 1) — the
// other half of the keyed-randomness primitive, shared so that probability
// draws use one mapping that cannot drift apart across copies.
func U01(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// Stream is a seeded SplitMix64 sequence: a deterministic substitute for a
// per-entity *rand.Rand. The zero value is a valid stream seeded with zero
// keys; normal construction is NewStream(keys...) or Reseed(keys...), which
// key the stream the same way a direct HashKeys draw would be keyed.
//
// A Stream is a single 8-byte word, so reseeding is one HashKeys call and
// an assignment — cheap enough to re-key per (round, receiver) in the radio
// medium's hot delivery loop. Streams are not safe for concurrent use; give
// each goroutine (or each entity) its own.
type Stream struct {
	state uint64
}

// NewStream returns a Stream keyed by HashKeys(keys...).
func NewStream(keys ...int64) *Stream {
	return &Stream{state: HashKeys(keys...)}
}

// Reseed re-keys the stream to HashKeys(keys...), restarting its sequence.
func (s *Stream) Reseed(keys ...int64) {
	s.state = HashKeys(keys...)
}

// State returns the stream's current position word. Together with SetState
// it makes a Stream checkpointable: a stream is a single uint64, so a
// snapshot records State() and a restore calls SetState(), after which the
// stream produces exactly the draws the original would have.
func (s *Stream) State() uint64 { return s.state }

// SetState restores a stream position captured by State.
func (s *Stream) SetState(v uint64) { s.state = v }

// Uint64 returns the next value of the SplitMix64 sequence.
func (s *Stream) Uint64() uint64 {
	s.state += golden
	return mix64(s.state)
}

// Float64 returns the next draw as a uniform value in [0, 1).
func (s *Stream) Float64() float64 {
	return U01(s.Uint64())
}

// Intn returns the next draw as a uniform value in [0, n). It panics if
// n <= 0, matching the math/rand contract it replaces. The modulo mapping
// carries a bias below 2^-40 for every n the stack uses (n < 2^24), far
// under anything an experiment can observe.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("det: Intn called with n <= 0")
	}
	return int(s.Uint64() % uint64(n))
}
