package sim

import (
	"fmt"
	"math"
	"testing"

	"vinfra/internal/geo"
	"vinfra/internal/mobility"
)

// perfectMedium delivers every transmission to every alive node (including
// the sender) and never reports collisions.
type perfectMedium struct{}

func (perfectMedium) Deliver(r Round, txs []Transmission, rxs []NodeInfo) []Reception {
	out := make([]Reception, len(rxs))
	for i := range rxs {
		if !rxs[i].Alive {
			out[i] = Reception{}
			continue
		}
		msgs := make([]Message, 0, len(txs))
		for _, tx := range txs {
			msgs = append(msgs, tx.Msg)
		}
		out[i] = Reception{Msgs: msgs}
	}
	return out
}

// echoNode broadcasts its ID every round and records everything it hears.
type echoNode struct {
	env   Env
	sent  int
	heard [][]Message
}

func (n *echoNode) Transmit(r Round) Message {
	n.sent++
	return fmt.Sprintf("msg-%d-%d", n.env.ID(), r)
}

func (n *echoNode) Receive(_ Round, rx Reception) {
	n.heard = append(n.heard, rx.Msgs)
}

// silentNode never transmits.
type silentNode struct {
	heard []Reception
}

func (n *silentNode) Transmit(Round) Message        { return nil }
func (n *silentNode) Receive(_ Round, rx Reception) { n.heard = append(n.heard, rx) }

func TestEngineBasicExchange(t *testing.T) {
	e := NewEngine(perfectMedium{})
	var a, b *echoNode
	e.Attach(geo.Point{}, nil, func(env Env) Node { a = &echoNode{env: env}; return a })
	e.Attach(geo.Point{X: 1}, nil, func(env Env) Node { b = &echoNode{env: env}; return b })

	e.Run(3)

	if a.sent != 3 || b.sent != 3 {
		t.Fatalf("sent = %d/%d, want 3/3", a.sent, b.sent)
	}
	if len(a.heard) != 3 {
		t.Fatalf("a heard %d rounds, want 3", len(a.heard))
	}
	for r, msgs := range a.heard {
		if len(msgs) != 2 {
			t.Errorf("round %d: a heard %d messages, want 2", r, len(msgs))
		}
	}
}

func TestEngineCrash(t *testing.T) {
	e := NewEngine(perfectMedium{})
	var a *echoNode
	var s *silentNode
	idA := e.Attach(geo.Point{}, nil, func(env Env) Node { a = &echoNode{env: env}; return a })
	e.Attach(geo.Point{}, nil, func(Env) Node { s = &silentNode{}; return s })

	e.CrashAt(idA, 2)
	e.Run(4)

	if a.sent != 2 {
		t.Errorf("crashed node sent %d messages, want 2", a.sent)
	}
	if e.Alive(idA) {
		t.Error("node should be dead after CrashAt round")
	}
	if got := e.AliveCount(); got != 1 {
		t.Errorf("AliveCount = %d, want 1", got)
	}
	// The silent node keeps receiving (empty) rounds after the crash.
	if len(s.heard) != 4 {
		t.Fatalf("silent node heard %d rounds, want 4", len(s.heard))
	}
	if len(s.heard[3].Msgs) != 0 {
		t.Errorf("round 3 should carry no messages, got %d", len(s.heard[3].Msgs))
	}
}

func TestEngineImmediateCrashAndLeave(t *testing.T) {
	e := NewEngine(perfectMedium{})
	var a *echoNode
	id := e.Attach(geo.Point{}, nil, func(env Env) Node { a = &echoNode{env: env}; return a })
	e.Crash(id)
	e.Run(2)
	if a.sent != 0 {
		t.Errorf("immediately crashed node transmitted %d times", a.sent)
	}
	id2 := e.Attach(geo.Point{}, nil, func(env Env) Node { return &silentNode{} })
	e.Leave(id2)
	if e.Alive(id2) {
		t.Error("node alive after Leave")
	}
}

func TestEngineMidRunAttach(t *testing.T) {
	e := NewEngine(perfectMedium{})
	var s *silentNode
	e.Attach(geo.Point{}, nil, func(Env) Node { s = &silentNode{}; return s })
	e.Run(2)
	var late *echoNode
	e.Attach(geo.Point{}, nil, func(env Env) Node { late = &echoNode{env: env}; return late })
	e.Run(2)
	if late.sent != 2 {
		t.Errorf("late joiner sent %d, want 2", late.sent)
	}
	if len(s.heard) != 4 {
		t.Fatalf("early node heard %d rounds, want 4", len(s.heard))
	}
	if len(s.heard[3].Msgs) != 1 {
		t.Errorf("early node should hear the late joiner, got %d msgs", len(s.heard[3].Msgs))
	}
}

type sizedMsg int

func (s sizedMsg) WireSize() int { return int(s) }

func TestEngineStats(t *testing.T) {
	e := NewEngine(perfectMedium{})
	e.Attach(geo.Point{}, nil, func(Env) Node { return staticSender{sizedMsg(10)} })
	e.Attach(geo.Point{}, nil, func(Env) Node { return staticSender{sizedMsg(30)} })
	e.Attach(geo.Point{}, nil, func(Env) Node { return &silentNode{} })
	e.Run(5)
	st := e.Stats()
	if st.Rounds != 5 {
		t.Errorf("Rounds = %d, want 5", st.Rounds)
	}
	if st.Transmissions != 10 {
		t.Errorf("Transmissions = %d, want 10", st.Transmissions)
	}
	if st.MaxMessageSize != 30 {
		t.Errorf("MaxMessageSize = %d, want 30", st.MaxMessageSize)
	}
	if st.TotalBytes != 5*(10+30) {
		t.Errorf("TotalBytes = %d, want 200", st.TotalBytes)
	}
}

type staticSender struct{ m Message }

func (s staticSender) Transmit(Round) Message { return s.m }
func (staticSender) Receive(Round, Reception) {}

func TestMessageSizeDefault(t *testing.T) {
	if got := MessageSize("hello"); got != DefaultMessageSize {
		t.Errorf("MessageSize(unsized) = %d, want %d", got, DefaultMessageSize)
	}
	if got := MessageSize(sizedMsg(17)); got != 17 {
		t.Errorf("MessageSize(sized) = %d, want 17", got)
	}
}

// Waypoint models the tests roam their nodes under. The engine only reads
// a model, so every test shares these.
var (
	// drift walks a node straight along +X at one unit a round: its area is
	// a single point a long way off.
	drift = &mobility.RandomWaypoint{Area: geo.Rect{Min: geo.Point{X: 1e6}, Max: geo.Point{X: 1e6}}, VMax: 1}
	// roam has a large VMax over a field a few shard rectangles wide, so
	// nodes migrate across shards within a short run.
	roam = &mobility.RandomWaypoint{Area: geo.Rect{Min: geo.Point{X: -10, Y: -10}, Max: geo.Point{X: 60, Y: 60}}, VMax: 4}
	// cramped is a field a few steps wide: a node arrives, and redraws from
	// its stream, every few rounds.
	cramped = &mobility.RandomWaypoint{Area: geo.Rect{Max: geo.Point{X: 4, Y: 4}}, VMax: 1}
)

// drifted is where a node that starts at x drifts to in rounds rounds: the
// model's own step on the same inputs. drift's destination is one point, so
// what its first round draws does not matter.
func drifted(x float64, rounds int) geo.Point {
	m := *drift
	at := geo.Point{X: x}
	for i := 0; i < rounds; i++ {
		at = m.Move(0, at, func(n int) int { return n / 2 })
	}
	return at
}

// TestEngineMobility: a node under a model whose area is a single point
// walks straight to it, one VMax a round, and SetPosition teleports it.
func TestEngineMobility(t *testing.T) {
	e := NewEngine(perfectMedium{})
	id := e.Attach(geo.Point{}, drift, func(Env) Node { return &silentNode{} })
	e.Run(4)
	if got, want := e.Position(id), drifted(0, 4); got != want || math.Abs(got.X-4) > 1e-9 || got.Y != 0 {
		t.Errorf("position after 4 rounds = %v, want %v, X≈4 on the axis", got, want)
	}
	e.SetPosition(id, geo.Point{X: 100})
	if got := e.Position(id); got.X != 100 {
		t.Errorf("SetPosition: got %v", got)
	}
	e.Run(1)
	if got, want := e.Position(id), drifted(100, 1); got != want {
		t.Errorf("one round after teleporting to X=100: %v, want %v", got, want)
	}
}

func TestEngineRoundHook(t *testing.T) {
	e := NewEngine(perfectMedium{})
	e.Attach(geo.Point{}, nil, func(env Env) Node { return &echoNode{env: env} })
	var rounds []Round
	var txCounts []int
	e.OnRound(func(r Round, txs []Transmission, rxs []Reception) {
		rounds = append(rounds, r)
		txCounts = append(txCounts, len(txs))
	})
	e.Run(3)
	if len(rounds) != 3 || rounds[2] != 2 {
		t.Errorf("hook rounds = %v, want [0 1 2]", rounds)
	}
	for i, c := range txCounts {
		if c != 1 {
			t.Errorf("round %d: hook saw %d txs, want 1", i, c)
		}
	}
}

// randNode draws one random number per round and records the sequence.
type randNode struct {
	env Env
	seq []int
}

func (n *randNode) Transmit(Round) Message {
	n.seq = append(n.seq, n.env.Intn(1<<30))
	return nil
}
func (n *randNode) Receive(Round, Reception) {}

func TestEngineDeterminismAcrossParallel(t *testing.T) {
	run := func(parallel bool) [][]int {
		opts := []Option{WithSeed(42)}
		if parallel {
			opts = append(opts, WithWorkers(0))
		}
		e := NewEngine(perfectMedium{}, opts...)
		nodes := make([]*randNode, 8)
		for i := range nodes {
			e.Attach(geo.Point{}, nil, func(env Env) Node {
				n := &randNode{env: env}
				nodes[i] = n
				return n
			})
		}
		e.Run(20)
		out := make([][]int, len(nodes))
		for i, n := range nodes {
			out[i] = n.seq
		}
		return out
	}

	seq := run(false)
	par := run(true)
	for i := range seq {
		if len(seq[i]) != len(par[i]) {
			t.Fatalf("node %d: sequence lengths differ", i)
		}
		for j := range seq[i] {
			if seq[i][j] != par[i][j] {
				t.Fatalf("node %d draw %d: sequential %d != parallel %d", i, j, seq[i][j], par[i][j])
			}
		}
	}
}

func TestEngineSeedsDiffer(t *testing.T) {
	draw := func(seed int64) int {
		e := NewEngine(perfectMedium{}, WithSeed(seed))
		var n *randNode
		e.Attach(geo.Point{}, nil, func(env Env) Node { n = &randNode{env: env}; return n })
		e.Run(1)
		return n.seq[0]
	}
	if draw(1) == draw(2) {
		t.Error("different seeds produced identical first draws")
	}
	if draw(7) != draw(7) {
		t.Error("same seed must reproduce the run")
	}
}

func TestEngineNumNodesAndRound(t *testing.T) {
	e := NewEngine(perfectMedium{})
	if e.Round() != 0 {
		t.Errorf("initial Round = %d", e.Round())
	}
	e.Attach(geo.Point{}, nil, func(Env) Node { return &silentNode{} })
	e.Attach(geo.Point{}, nil, func(Env) Node { return &silentNode{} })
	if e.NumNodes() != 2 {
		t.Errorf("NumNodes = %d, want 2", e.NumNodes())
	}
	e.Run(7)
	if e.Round() != 7 {
		t.Errorf("Round after 7 steps = %d", e.Round())
	}
}

// TestCrashAtPastRoundAppliesImmediately is the regression test for the
// silently-dropped late CrashAt: a crash scheduled for a round that already
// ran must fire now, not never.
func TestCrashAtPastRoundAppliesImmediately(t *testing.T) {
	e := NewEngine(perfectMedium{})
	var a, b *echoNode
	idA := e.Attach(geo.Point{}, nil, func(env Env) Node { a = &echoNode{env: env}; return a })
	idB := e.Attach(geo.Point{}, nil, func(env Env) Node { b = &echoNode{env: env}; return b })
	e.Run(5)

	e.CrashAt(idA, 2) // round 2 is long past: must apply immediately
	if e.Alive(idA) {
		t.Fatal("CrashAt for a past round was silently dropped")
	}
	e.Run(3)
	if a.sent != 5 {
		t.Errorf("node crashed late sent %d messages, want 5", a.sent)
	}

	// A crash scheduled for the engine's current round fires before that
	// round's transmissions, exactly like the scheduled path.
	e.CrashAt(idB, e.Round())
	if e.Alive(idB) {
		t.Fatal("CrashAt for the current round did not apply")
	}
	e.Run(1)
	if b.sent != 8 {
		t.Errorf("node crashed at current round sent %d messages, want 8", b.sent)
	}
	if got := e.AliveCount(); got != 0 {
		t.Errorf("AliveCount = %d, want 0", got)
	}
}

// TestChurnLongevity drives a long run in which most nodes die through
// every crash mechanism (Crash, CrashAt, Leave) and checks the engine's
// dead-node bookkeeping: dead nodes never transmit again, the medium keeps
// seeing a reception slot for every node ever attached (the
// len(rxs) == len(nodes) contract), dead entries in the medium's view stay
// marked dead at their final position, and survivors keep exchanging
// messages.
func TestChurnLongevity(t *testing.T) {
	e := NewEngine(perfectMedium{}, WithSeed(3))
	const n = 60
	echoes := make([]*echoNode, n)
	for i := 0; i < n; i++ {
		i := i
		e.Attach(geo.Point{X: float64(i)}, nil, func(env Env) Node {
			echoes[i] = &echoNode{env: env}
			return echoes[i]
		})
	}
	crashedAt := make(map[NodeID]Round)
	e.OnRound(func(r Round, txs []Transmission, rxs []Reception) {
		if len(rxs) != e.NumNodes() {
			t.Fatalf("round %d: %d receptions for %d nodes", r, len(rxs), e.NumNodes())
		}
		for _, tx := range txs {
			if cr, ok := crashedAt[tx.Sender]; ok && r >= cr {
				t.Errorf("round %d: dead node %d transmitted", r, tx.Sender)
			}
		}
	})

	const dead = 45
	for i := 0; i < dead; i++ {
		id := NodeID(i)
		switch i % 3 {
		case 0:
			e.Crash(id)
			crashedAt[id] = e.Round()
		case 1:
			e.Leave(id)
			crashedAt[id] = e.Round()
		case 2:
			e.CrashAt(id, e.Round()+2)
			crashedAt[id] = e.Round() + 2
		}
		e.Run(1)
	}
	e.Run(40)

	if got := e.AliveCount(); got != n-dead {
		t.Errorf("AliveCount = %d, want %d", got, n-dead)
	}
	total := e.Round()
	for i, node := range echoes {
		want := int(total)
		if cr, ok := crashedAt[NodeID(i)]; ok {
			want = int(cr)
		}
		if node.sent != want {
			t.Errorf("node %d sent %d messages, want %d", i, node.sent, want)
		}
	}
	// Survivors still hear each other in the final round.
	last := echoes[n-1].heard[len(echoes[n-1].heard)-1]
	if len(last) != n-dead {
		t.Errorf("survivor heard %d messages in the last round, want %d", len(last), n-dead)
	}
}
