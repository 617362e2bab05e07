// Package vinfra is a reproduction of "Virtual Infrastructure for
// Collision-Prone Wireless Networks" (Chockler, Gilbert, Lynch, PODC 2008).
//
// # Module layout
//
// The module is `vinfra` (Go 1.22, no external dependencies). The library
// lives under internal/:
//
//   - sim: the slotted, synchronous round engine (Section 2). Runs are
//     deterministic per seed; WithParallel shards each round's mobility,
//     Transmit and Receive fan-out across a bounded worker pool without
//     changing output. The steady-state round loop is allocation-free and
//     touches only flat engine-owned memory: position and liveness live
//     once, in the NodeID-indexed NodeInfo slice the medium reads; the
//     rest of a node (Node, Mover, random stream — also its Env) is one
//     value in a geometrically growing slab; movers draw through one
//     cached closure per worker; every per-round walk covers only the
//     alive list (dead nodes cost nothing after the round they die in),
//     and CrashAt with a round at or before the current one applies
//     immediately instead of being silently dropped. A node whose radio
//     is off says so (Env.SleepUntil): it keeps moving, but it is on the
//     awake list no longer, and Transmit, Receive, the shard partition and
//     the receiver list every medium is handed are walks of that list —
//     kept current each round at the cost of what changed (who fell
//     asleep, whose wake round came), not of the population. A run with
//     sleepers is byte-identical, round by round, to the same run with
//     every SleepUntil ignored (snapshots do not record sleep; Restore
//     and Fork wake everyone).
//   - geo: planar geometry, the quasi-unit-disk radii R1/R2, deployment
//     grids, and CellIndex — the uniform-grid spatial index that makes
//     radius queries O(points in nearby cells) instead of O(n): a dense,
//     pointer-free bucket table over the points' cell bounding box, with
//     memory bounded by the point count and a defined rule for non-finite
//     coordinates. It also answers nearest-within-radius queries
//     (NearestWithin, behind the O(1) vi.Deployment.RegionOf) and
//     rebuilds in place without allocating (Rebuild).
//   - radio: the collision-prone medium. Delivery stamps each round's
//     transmissions into the 3x3 block of R2-sized cells around their
//     origin so every receiver reads the one cell it stands in
//     (near-linear per round rather than O(receivers x transmissions));
//     Deliver picks per round, scanning every transmission instead when a
//     round has fewer than 8. A cell lists its own transmissions before
//     its neighbours', and a receiver stops reading candidates at its
//     decision point — one other transmission within R1 and a second
//     within R2, or its own — after which none can change its reception.
//     A silent round reads no candidates at all. Scan and grid are
//     reception-identical for the same seed. A Medium delivers on one
//     goroutine (region shards, each with its own Medium, are what
//     parallelises delivery) and its per-round state (reception slice,
//     message arena, stamped grid, sender order) lives on the Medium as
//     flat slices, so steady-state delivery allocates nothing: a
//     reception's messages are a window onto the arena, valid until the
//     receiver's Receive returns.
//   - cd, cm: the model's collision detector classes and contention
//     managers. Both have exact-behavior unit tests under injected
//     jamming: adversarial collision patterns produce precisely the
//     detections (completeness on real losses, per-class handling of
//     forced spurious indications) and backoff-window trajectories the
//     model specifies.
//   - faults: the deterministic adversary plane. Spatial jammers
//     (CellJammer, RegionJammer) plug into radio.Config.Adversary and
//     silence every receiver standing in a jammed cell or footprint;
//     engine-level sim.Fault attacks (RegionWipe, CrashBurst, ChurnStorm,
//     Herd) are consulted by the engine at the start of every round. All
//     choices are pure hashes of (Seed, round, node/cell), so the same
//     seed reproduces the same attack byte-for-byte, sequential or
//     parallel. The package doc states the threat model and how to add an
//     adversary.
//   - wire: the deterministic byte-oriented codec behind the state plane:
//     append-style varint/length-prefixed encodings into caller-supplied
//     byte slices, canonical by construction (one encoding per value,
//     minimal varints, validated lengths), a zero-copy decoding cursor
//     with a sticky error, pooled scratch buffers, and an allocation-free
//     chainable FNV-1a digest type. Dependency-free.
//   - cha: Convergent History Agreement, the paper's core protocol.
//     Value is a byte string carrying a cached digest, so history digests
//     fold cached 64-bit digests instead of re-hashing proposal bytes.
//   - vi: the full virtual infrastructure emulation (Section 4). Virtual
//     node states, payloads and proposals are byte strings encoded with
//     wire; Codec adapts typed states through explicit
//     EncodeState/DecodeState functions, and every protocol message's
//     WireSize is the exact length of its encoding; nothing in the
//     module uses encoding/gob. Monitor accounts per-virtual-node
//     availability: green instances, maximal stalls and recovery
//     latencies, with horizon-aware variants that count a silenced node
//     as unavailable. Devices sleep through the radio rounds they have no
//     part in: a Client takes part in two of a virtual round's s+12, an
//     Emulator in the phases and the one ballot slot of its own virtual
//     node — seven or eight as a replica, four or one as a joiner.
//   - apps, baseline: applications on top of the infrastructure and the
//     baselines the paper argues against. Application payloads and states
//     are canonical wire encodings (a one-byte kind tag plus fixed field
//     sequences) instead of hand-parsed prefix strings.
//   - mobility, metrics: mobility models and table rendering.
//   - experiments: the reproduction experiment suite E1–E14 (there is no
//     E10) — E11 "metro" drives grids of virtual nodes through heavy churn
//     (Leave, scheduled and late CrashAt, mid-run Attach) on the parallel
//     grid-indexed stack, E12 "state plane" reports per-virtual-round
//     emulation cost (radio rounds, wire bytes) at 9/25/49 virtual nodes,
//     E13 "adversary" sweeps faults attacks (jam, wipe, storm, burst) x
//     intensity x deployment size, reporting availability, stalls and
//     recovery latencies from vi.Monitor, and E14 "city" runs the same
//     metro deployment on 1 and 8 region shards and pins the two runs
//     byte-identical. Every table
//     registers a harness.Descriptor (parameter grid, seed list, typed
//     rows) in its file's init. The VI-level cells (E5–E7, E11–E14) do
//     not assemble a stack themselves: each describes its deployment as
//     a spec.Spec value and builds it with spec.Build.
//   - spec: the vinfra-spec/v1 deployment document and spec.Build, the
//     one place an engine + medium + deployment + monitor world is
//     assembled — for cmd/visim, cmd/visimd (internal/service), the
//     benchmark and the experiments alike. World.AttachReplica and
//     World.SetLeader are what a churn-modelling driver adds mid-run.
//   - harness: the registry-based experiment runner. It fans
//     experiment×parameter×seed cells out over a bounded worker pool,
//     merges results deterministically (parallel output is byte-identical
//     to sequential), renders text tables through internal/metrics, and
//     emits the same rows as a machine-readable JSON report. Every value
//     in either is a simulated quantity.
//
// cmd/chabench runs the suite through the harness registry; cmd/visim runs
// an interactive tracking simulation (pass -parallel to shard rounds
// across cores). See README.md for a guided tour.
//
// # The determinism contract
//
// Every run is a pure function of its seed. Concretely: all randomness is
// derived from internal/det — a pure hash of (seed, round, node/cell) via
// det.HashKeys, or a det.Stream keyed the same way — never from math/rand;
// no wall-clock value reaches deterministic code (simulated time is the
// round counter; the one annotated exception under internal/ is the
// engine's partition timer, which no result or snapshot sees); map
// iteration order never
// reaches ordered output (collect keys, sort, then emit); and every wire
// encoder is closed under the codec surface (AppendTo implies WireSize and
// a package-level decoder), so states round-trip byte-identically. These
// four rules are machine-checked: tools/detlint is a go/analysis-style
// multichecker (globalrand, walltime, maporder, wirecomplete, seedflow)
// that runs in CI via `go vet -vettool` and must report zero findings on
// the tree. Deliberate exceptions carry a //detlint:<rule> annotation with
// a reason; see the "Static analysis" section of README.md for the
// grammar.
//
// # Verifying and benchmarking
//
// The tier-1 check is:
//
//	go build ./... && go test ./...
//
// The delivery-scaling benchmarks (1k and 10k nodes, brute-force scan vs
// grid index, sequential vs sharded) live in internal/radio and
// internal/sim, and the flat-cost RegionOf benchmarks in internal/vi:
//
//	go test ./internal/radio/ -bench 'Deliver' -benchtime 10x
//	go test ./internal/sim/ -bench 'EngineStep' -benchtime 10x
//	go test ./internal/vi/ -bench 'RegionOf' -benchtime 100000x
//	go test ./internal/vi/ -bench 'EmulatorVRound' -benchtime 30x
//	go run ./cmd/chabench -only E11,E12,E13,E14
//
// Steady-state allocations per round are gated by tests (skipped under
// -race): TestDeliverSteadyStateAllocs and TestEngineStepSteadyStateAllocs
// pin the allocation-free round loop — neither Engine.Step nor Deliver
// allocates, a round's received messages being windows onto one arena the
// medium refills — TestNormalizeSteadyStateAllocs the proposal's sort, and
// TestEmulatorVRoundSteadyStateAllocs pins the wire-codec state plane (a
// full virtual round at 9 virtual nodes in at most 100 allocations; the
// gob+string stack needed ~10,400), with spec's
// TestWorldVRoundSteadyStateAllocs holding the world spec.Build makes to
// the same kind of budget. CI also
// runs a fuzz smoke job: 10 seconds each over the wire decoder and the
// adversarial-input DecodeRoundInput/DecodeJoinAckMsg paths.
//
// # Host time
//
// What the paper claims are simulated quantities, pinned byte for byte by
// the golden file and bench/expect.json. Host time is a property of this
// reproduction and is judged in one place: bench/ (BENCHMARK.json), whose
// --compare mode holds two result sets taken on the same machine to the
// benchmark's own bounds. CI's perf job runs every workload on the parent
// commit and on the change, alternating, and fails when a metric is worse
// than its bound (.github/scripts/perf-pair.sh; the local form is the two
// commands in bench/README.md). chabench prints no host time at all: its
// tables and -json report carry simulated quantities only.
//
// CI also runs build/vet, gofmt, golden-file freshness, a Go 1.22/1.23
// test matrix and a -race job (.github/workflows/ci.yml, with a
// concurrency group cancelling superseded PR runs and one composite
// toolchain-setup action shared by every job). A scheduled nightly
// workflow (.github/workflows/nightly.yml) soaks full-grid E11+E13 across
// seeds 1-5, repeats the pairwise host-time gate at the benchmark's full
// run length, fuzzes 3 minutes per target, and re-runs the adversary
// determinism property tests under -race.
//
// After an intentional result change, regenerate the experiments golden
// file (go test ./internal/experiments/ -run Golden -update-golden).
package vinfra
