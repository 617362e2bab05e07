// Package faults is the deterministic adversary plane: seedable, composable
// attack schedules that plug into the stack at its three layers and drive
// the collision detectors (internal/cd), contention managers (internal/cm)
// and the virtual-node emulation (internal/vi) near their specified limits —
// actively hostile scenarios rather than the benign stochastic loss of
// radio.RandomLoss.
//
// # Threat model
//
// The paper's model (Section 2) grants the environment three powers, and
// the plane implements an adversary for each:
//
//   - Channel interference. Before the collision-freedom horizon the
//     adversary may destroy arbitrary messages and force spurious collision
//     indications. CellJammer and RegionJammer implement the spatial
//     version of that power as radio.Adversary values: every receiver
//     standing in a jammed cell (or within a jammed target's footprint)
//     loses everything it would have heard and gets a ± indication — a
//     ground-truth loss, so complete detectors (cd.AC, cd.EventuallyAC)
//     fire for real, and a forced indication, so eventually-accurate
//     detectors are exercised on their suppression side too.
//
//   - Crash failures. Nodes may fail at arbitrary times, in arbitrary
//     correlated batches. RegionWipe (every replica of a region at once),
//     CrashBurst (a deterministic fraction of the population on a duty
//     cycle) and ChurnStorm (kill-and-respawn at a sustained rate) are
//     sim.Fault values the engine consults at the start of every round.
//
//   - Mobility. Devices move adversarially within the speed bound. Herd
//     drags a cohort toward a focal point, emptying some regions (replica
//     starvation) while overcrowding another (join/contention pressure).
//
// # Determinism
//
// Every adversary derives all of its choices from pure hashes of
// (Seed, round, node/cell) — no internal mutable state, no dependence on
// call order. The radio adversaries are invoked concurrently by the shard
// mediums that share them and the sim faults sequentially by the engine;
// in both cases the same seed produces byte-identical runs, sequential,
// parallel or sharded (pinned by TestAdversaryParallelEqualsSequential and
// TestShardedEqualsSequential in internal/experiments).
//
// # Snapshot contract
//
// Adversaries are configuration, not state: because every choice is a
// pure hash of (Seed, round, node/cell), a restored run replays an attack
// schedule exactly without the adversary carrying anything between
// rounds. Each adversary therefore fingerprints only its configuration
// (sim.Fingerprinter's AppendFingerprint, a one-way encoding), and the
// engine folds those fingerprints into the fault digest that
// sim.EngineSnapshot carries — a checkpoint refuses to resume against a
// different attack schedule. The medium does the same for its adversary;
// a radio.Compose stack folds its members in order. Closure fields (Eligible,
// Respawn) are code, not data: they are deliberately absent from the
// fingerprints (pinned by TestAdversaryEncodingsOmitClosures), so the
// restore protocol requires the driver to rebuild matching closures before
// overlaying the checkpoint — the same rebuild-then-overlay rule as
// programs and factories.
//
// # Adding an adversary
//
// A new radio-layer attack implements radio.Adversary: Filter decides what
// a receiver at a known position keeps, ForceCollision whether its detector
// is jammed; both must be pure functions of (round, receiver, position) and
// the adversary's configuration. A new engine-layer attack implements
// sim.Fault: Strike(r, ctl) runs once per round on the engine goroutine and
// may crash, relocate or (via a closed-over engine) attach nodes; derive
// any randomness with det.HashKeys keyed by (Seed, r, id), never from
// shared RNGs. Either kind implements sim.Fingerprinter over its
// configuration so a checkpoint refuses a different attack. Compose radio attacks with radio.Compose and engine attacks by
// registering several faults (or with Faults). Experiment E13 is the
// reference wiring: one adversary kind x intensity per cell, availability
// and recovery measured by vi.Monitor.
package faults
