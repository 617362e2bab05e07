// Package vinfra is a reproduction of "Virtual Infrastructure for
// Collision-Prone Wireless Networks" (Chockler, Gilbert, Lynch, PODC 2008).
//
// # Module layout
//
// The module is `vinfra` (Go 1.22, no external dependencies). The library
// lives under internal/:
//
//   - sim: the slotted, synchronous round engine (Section 2). Runs are
//     deterministic per seed; WithWorkers shards each round's mobility,
//     Transmit and Receive fan-out across a bounded worker pool without
//     changing output. The steady-state round loop is allocation-free and
//     touches only flat engine-owned memory: position and liveness live
//     once, in the NodeID-indexed NodeInfo slice the medium reads; a
//     node's waypoint leg and model index live in a second, pointer-free
//     NodeID-indexed column; the rest of a node (Node, random stream —
//     also its Env) is one value in a geometrically growing slab, and
//     spec.Build reserves all of them for its population up front;
//     mobility is one loop over the alive NodeIDs, gathering each leg and
//     position, with the steady leg inlined, and on amd64 a packed
//     SSE2 kernel steps steady pairs of neighbours two at a time, bit for
//     bit as the loop would, declining every other pair to it (a turn, a
//     static node, two models, a NaN); every per-round walk
//     covers only the alive list (dead nodes cost nothing after the round
//     they die in), and CrashAt with a round at or before the current one
//     applies immediately instead of being silently dropped. A node whose
//     radio is off says so (Env.SleepUntil): it keeps moving, but it is on the
//     awake list no longer, and Transmit, Receive, the shard partition and
//     the receiver list every medium is handed are walks of that list —
//     kept current each round at the cost of what changed (who fell
//     asleep, whose wake round came), not of the population. A node with
//     nothing to send, on which an empty reception would change nothing,
//     listens (Env.ListenUntil): its reception is computed, but the
//     Transmit and Receive walks pass it by with one compare unless it
//     holds a message or a collision indication, which wakes the node. A
//     run with sleepers and listeners is byte-identical, round by round,
//     to the same run with every SleepUntil and ListenUntil ignored
//     (snapshots record neither; Restore wakes everyone).
//   - geo: planar geometry, the quasi-unit-disk radii R1/R2, deployment
//     grids, and CellIndex — the uniform-grid spatial index that makes
//     radius queries O(points in nearby cells) instead of O(n): a dense,
//     pointer-free bucket table over the points' cell bounding box, with
//     memory bounded by the point count and a defined rule for non-finite
//     coordinates. It also answers nearest-within-radius queries
//     (NearestWithin, behind the O(1) vi.Deployment.RegionOf), rebuilds
//     in place without allocating (Rebuild), and is what vi.BuildSchedule
//     colours the broadcast schedule off, walking the buckets of a block
//     of cells (Block, Bucket) in a loop of its own.
//   - radio: the collision-prone medium. Delivery stamps each round's
//     transmissions into the 3x3 block of R2-sized cells around their
//     origin so every receiver reads the one cell it stands in
//     (near-linear per round rather than O(receivers x transmissions));
//     Deliver picks per round, scanning every transmission instead when a
//     round has fewer than 8. A cell lists its own transmissions before
//     its neighbours', and a receiver stops reading candidates at its
//     decision point, after which none can change its reception. A plain
//     round — no adversary, no gray zone, a detector exact from that round
//     on (cd.Exact: AC, or ◇AC from its accuracy round) — is counted: a
//     reception is whether none, one (heard within R1) or more other
//     transmissions lie within R2, so a receiver stops at the second (the
//     first if it transmits) and nothing is asked of the detector. Any
//     other round is concluded receiver by receiver, stopping at one other
//     transmission within R1 and a second within R2, or its own. A silent
//     round under an exact detector reads no candidates at all and asks
//     nobody, adversary or not — and the engine, told so once
//     (sim.Quiet), does not call Deliver for it. Scan and grid are
//     reception-identical for the same seed. A Medium delivers on one
//     goroutine (region shards, each with its own Medium, are what
//     parallelises delivery) and its per-round state (reception slice,
//     message arena, stamped grid, sender order) lives on the Medium as
//     flat slices, so steady-state delivery allocates nothing: a
//     reception's messages are a window onto the arena, valid until the
//     receiver's Receive returns. A Medium keeps no state between rounds,
//     so a checkpoint records only its configuration fingerprint
//     (Medium.AppendFingerprint), and a restore compares it.
//   - cd, cm: the model's collision detector classes and contention
//     managers. A detector that reports exactly the losses within R2 from
//     some round on says so (cd.Exact: AC from 0, ◇AC from its accuracy
//     round; Complete and Null never), which is what lets the medium count
//     plain rounds. A contention manager keeps one clock, its caller's
//     ballots: a backoff loser sits out the next ballot, and the regional
//     manager competes only within the deployment's LeaderMargin (§4.2),
//     which spec.Build refuses when no bootstrap replica stands inside it.
//     Succession costs one ballot: a manager made mid-run sits out its
//     first ballot, and a silence that ends a deferral leaves the backoff
//     window at 2 or more. Tests watch ballots through EmulatorHooks.OnBallot.
//     Both have exact-behavior unit tests under injected jamming:
//     adversarial collision patterns produce precisely the detections
//     (completeness on real losses, per-class handling of forced spurious
//     indications) and backoff-window trajectories the model specifies.
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
//     A close walks the history chain once, counting what breaks, and
//     builds no history: a green Output.History() is the core's view,
//     built at the output's own instance when a consumer asks, until the
//     core's GC, ResetAt or Restore drops the window below it; the view
//     it returns holds until it is rebuilt (CalculateHistory is the copy
//     to keep). A ballot travels as a *BallotMsg into its sender, valid
//     for its round.
//     Seat is Figure 1's per-replica rule for an instance's three phases,
//     written once: Replica runs one, and so does vi.Emulator for both of
//     a virtual round's instances.
//     Recorder, the theorem checker, is a window like Core: the positions
//     above the lowest checkpoint floor among live nodes, and one record
//     per node. It needs each node registered (OutputFunc) before its
//     first output, outputs in increasing instance order with floors that
//     never fall, and nothing from a crashed node; its violation counts
//     follow arrival order.
//   - vi: the full virtual infrastructure emulation (Section 4). Virtual
//     node states, payloads and proposals are byte strings encoded with
//     wire; Codec adapts typed states through explicit
//     EncodeState/DecodeState functions, and every protocol message's
//     WireSize is the exact length of its encoding; nothing in the
//     module uses encoding/gob. A replica's state cache lives in its
//     Emulator, a proposal is encoded only when the contention manager
//     advises its ballot (one allocation, the value), and agreed values
//     decode into a RoundInput the replica reuses. A virtual node's
//     replicas step each history position once between them, whether they
//     estimate it in the vn phase or fold it at a green instance, and ask
//     its program for its broadcast once a virtual round: one replica
//     publishes in the node's memo of the deployment, a pair of records
//     its first publish allocates and later ones rewrite in place, one
//     writer a radio round, so no sibling still reads the record rewritten
//     (no lock), and a sibling with the same position, start state and
//     agreed value — or virtual round and state — takes it. A virtual
//     round then allocates per virtual node, not per replica, and a client
//     broadcasts its program's payload without copying it. A replica's
//     estimate and fold start from one state cache, keyed exactly by the
//     highest position its history includes at or below the cached one, so
//     a stall costs its new positions, not a refold. Monitor accounts per-virtual-node
//     availability: green instances, maximal stalls and recovery
//     latencies through a horizon, in a table indexed by virtual node, so
//     a silenced node counts as unavailable. Devices sleep through the
//     radio rounds they have no part in: a Client takes part in two of a
//     virtual round's s+12, an Emulator in the phases and the one ballot
//     slot of its own virtual node — seven or eight as a replica, four or
//     one as a joiner — read off a timetable the deployment lays out with
//     the schedule, one row per kind of emulator, in which each emulator
//     keeps its place. In some of a replica's rounds it only listens —
//     veto-1 while its core is not red, join, join-ack when its virtual
//     node is unscheduled, and the scheduled node's join-ack and reset
//     while it has seen no join activity — so one that hears nothing there
//     is called in four. A replica runs the scheduled and the unscheduled
//     agreement instance through one cha.Seat, the six phases one case of
//     its phase switch.
//     Clients and emulators checkpoint the one way every stateful node
//     part does: AppendState and RestoreState (sim.Snapshotter) write and
//     read their live fields straight to and from a wire blob, the
//     contention manager's and the client program's blobs nested inside.
//     A deployment is built once:
//     NewDeployment colours the broadcast schedule a single time, greedily
//     in index order straight off a location index (no conflict graph,
//     memory linear in the virtual nodes, and each virtual node visits
//     only its earlier neighbours), hands it to every virtual node's
//     Program factory and works out each virtual node's initial state once
//     for all its replicas to share. Nodes are carved, not allocated one
//     by one: clients from chunks, and the bootstrapped replicas'
//     emulators, agreement cores and contention managers from arrays sized
//     for their number (Deployment.Reserve) — only where a node is
//     built, never on the parallel engine's workers.
//   - apps, baseline: applications on top of the infrastructure and the
//     baselines the paper argues against. Application payloads and states
//     are canonical wire encodings (a one-byte kind tag plus fixed field
//     sequences) instead of hand-parsed prefix strings.
//   - mobility: RandomWaypoint, the mobility model every moving device
//     runs (speed bounded by vmax, Section 2), and Leg, one node's
//     progress through it, which the engine keeps per node. Leg.Dist and
//     RandomWaypoint.Ahead are the steady step, inlined into the engine's
//     loop and repeated two lanes at a time by its amd64 kernel.
//   - experiments: the reproduction experiment suite E1–E14 (there is no
//     E10) — E11 "metro" drives grids of virtual nodes through heavy churn
//     (Leave, scheduled and late CrashAt, mid-run Attach) on the parallel
//     grid-indexed stack, E12 "state plane" reports per-virtual-round
//     emulation cost (radio rounds, wire bytes) at 9/25/49 virtual nodes,
//     E13 "adversary" sweeps faults attacks (jam, wipe, storm, burst) x
//     intensity x deployment size, reporting availability, stalls and
//     recovery latencies from vi.Monitor, and E14 "city" runs the same
//     metro deployment — its listeners spec's sleeping vi.Clients — on 1
//     and 8 region shards and pins the two runs' final checkpoint digests
//     equal. Every table registers a harness.Descriptor (parameter grid,
//     seed list, typed rows) in its file's init. The VI-level cells
//     (E5–E7, E11–E14) do not assemble a stack themselves: each describes
//     its deployment as a spec.Spec value and builds it with spec.Build;
//     E12, E13 jam and E14 cells are plain documents with nothing attached
//     afterwards.
//   - spec: the vinfra-spec/v1 deployment document and spec.Build, the
//     one place an engine + medium + deployment + monitor world is
//     assembled — for cmd/visim, cmd/visimd (internal/service), the
//     benchmark and the experiments alike. World.AttachReplica and
//     World.SetLeader are what a churn-modelling driver adds mid-run; the
//     World counts every replica it attaches, bootstrapped or mid-run, in
//     one pair of join/reset counters and keeps the one virtual-round
//     cursor, so a driver keeps only its policy state and resumes the
//     world with World.Resume after replaying its joiners.
//     Build leaves the schedule to vi.NewDeployment, its one owner,
//     reserves the deployment's replica arrays for its bootstrap
//     population, and keeps the fixed regime's leaders in one table that
//     World.SetLeader writes; TestBuildCityAllocs, TestBuildMetroAllocs and
//     TestBuildReplicaAllocs count what building the bench's city and
//     metro documents, and a replica, allocates.
//   - harness: the registry-based experiment runner. It fans
//     experiment×parameter×seed cells out over a bounded worker pool,
//     merges results deterministically (parallel output is byte-identical
//     to sequential), renders text tables (harness.Table), and
//     emits the same rows as a machine-readable JSON report. Every value
//     in either is a simulated quantity.
//
// cmd/chabench runs the suite through the harness registry (-workers 0
// fans its cells across cores); cmd/visim runs one deployment-spec
// document (-spec examples/tracking.json). See README.md for a guided
// tour.
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
//	go test ./internal/sim/ -bench 'EngineStep|EngineMobility' -benchtime 10x
//	go test ./internal/vi/ -bench 'RegionOf' -benchtime 100000x
//	go test ./internal/vi/ -bench 'EmulatorVRound' -benchtime 30x
//	go test ./internal/spec/ -bench 'MetroVRound' -benchtime 200x -benchmem
//	go run ./cmd/chabench -only E11,E12,E13,E14
//
// Steady-state allocations per round are gated by tests (skipped under
// -race): TestDeliverSteadyStateAllocs and TestEngineStepSteadyStateAllocs
// pin the allocation-free round loop — neither Engine.Step nor Deliver
// allocates, a round's received messages being windows onto one arena the
// medium refills — TestEncodeSteadyStateAllocs the proposal's encoding (one
// allocation, the value), and
// TestEmulatorVRoundSteadyStateAllocs pins the wire-codec state plane (a
// full virtual round at 9 led, green virtual nodes in at most 90
// allocations, the same over t and 8t virtual rounds; the gob+string stack
// needed ~10,400), with spec's
// TestWorldVRoundSteadyStateAllocs holding the world spec.Build makes to
// the same kind of budget (at most 85, the same over 36 and 288 virtual
// rounds). Construction has gates of its own: TestBuildCityAllocs,
// TestBuildMetroAllocs and vi's TestBuildScheduleAllocs. CI also
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
