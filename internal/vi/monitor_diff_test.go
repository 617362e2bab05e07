package vi

import (
	"bytes"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"vinfra/internal/cha"
)

// sameAccounting holds the run-list monitor to the map oracle on everything
// a monitor answers: reports through below, at and above every top, the
// summary through several horizons, and the snapshot's bytes.
func sameAccounting(t *testing.T, m *Monitor, o *mapMonitor, vnodes, horizon int) {
	t.Helper()
	for v := VNodeID(0); int(v) <= vnodes; v++ { // one past the last: never observed
		top := int(o.top[v])
		for _, through := range []int{0, 1, top / 2, top - 1, top, top + 1, horizon, horizon + 7} {
			if through < 0 {
				continue
			}
			if a, b := m.ReportThrough(v, through), o.ReportThrough(v, through); !reflect.DeepEqual(a, b) {
				t.Fatalf("ReportThrough(%d, %d) = %+v, oracle %+v", v, through, a, b)
			}
		}
	}
	for _, through := range []int{0, horizon / 3, horizon, horizon + 7} {
		if a, b := m.SummaryThrough(vnodes, through), o.SummaryThrough(vnodes, through); a != b {
			t.Fatalf("SummaryThrough(%d) = %+v, oracle %+v", through, a, b)
		}
	}
	ms, os := m.Snapshot(), o.Snapshot()
	mb, ob := ms.AppendTo(nil), os.AppendTo(nil)
	if !bytes.Equal(mb, ob) || ms.WireSize() != len(mb) {
		t.Fatalf("snapshot %d bytes (WireSize %d), oracle %d bytes", len(mb), ms.WireSize(), len(ob))
	}
}

// wellFormed checks the run list's own invariant: ascending, disjoint, and
// no two runs adjacent.
func wellFormed(t *testing.T, m *Monitor) {
	t.Helper()
	for v, g := range m.vnodes {
		for i, r := range g.runs {
			if r.from > r.to || (i > 0 && g.runs[i-1].to+1 >= r.from) {
				t.Fatalf("vnode %d: runs %v are not maximal and ascending", v, g.runs)
			}
		}
	}
}

// TestMonitorMatchesMapMonitor is the acceptance of "the reports do not
// move": random observation orders — duplicates, out-of-order instances,
// gaps that fill later and merge two runs, non-green outputs that only
// raise the top, several virtual nodes — give the same ReportThrough,
// SummaryThrough and snapshot bytes as the
// nested-map monitor, after every few observations and at the end, and
// Restore(Snapshot()) changes nothing.
func TestMonitorMatchesMapMonitor(t *testing.T) {
	const vnodes, horizon = 5, 120
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, o := NewMonitor(), newMapMonitor()
		pGreen := 0.3 + 0.65*rng.Float64()
		window := 1 + rng.Intn(30) // how far out of order an observation may land
		for i := 0; i < 600; i++ {
			base := i * horizon / 600
			out := cha.Output{
				Instance: cha.Instance(max(1, base+rng.Intn(window)-window/2)),
				Color:    cha.Red + cha.Color(rng.Intn(3)),
			}
			if rng.Float64() < pGreen {
				out.Color = cha.Green
			}
			v := VNodeID(rng.Intn(vnodes))
			for n := 1 + rng.Intn(3); n > 0; n-- { // replicas report the same output
				m.Observe(v, out)
				o.Observe(v, out)
			}
			if i%40 == 0 {
				wellFormed(t, m)
				sameAccounting(t, m, o, vnodes, horizon)
			}
		}
		wellFormed(t, m)
		sameAccounting(t, m, o, vnodes, horizon)

		before := m.Snapshot().AppendTo(nil)
		dec, err := DecodeMonitorSnapshot(before)
		if err != nil {
			t.Fatal(err)
		}
		for _, into := range []*Monitor{NewMonitor(), m} { // a fresh monitor, and in place
			into.Restore(dec)
			wellFormed(t, into)
			if !bytes.Equal(into.Snapshot().AppendTo(nil), before) {
				t.Fatalf("seed %d: Restore(Snapshot()) is not the identity", seed)
			}
			sameAccounting(t, into, o, vnodes, horizon)
		}
	}
}

// TestMonitorRunsMerge walks the one structural case by hand: a gap between
// two runs fills from both ends and the instance that closes it leaves one
// run.
func TestMonitorRunsMerge(t *testing.T) {
	m := NewMonitor()
	for _, k := range []int{1, 2, 3, 8, 9, 5, 7, 4, 4, 9} {
		observe(m, 0, k, true)
	}
	if got, want := m.vnodes[0].runs, []run{{1, 5}, {7, 9}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("runs %v, want %v", got, want)
	}
	observe(m, 0, 6, true)
	if got, want := m.vnodes[0].runs, []run{{1, 9}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("runs %v after the gap closed, want %v", got, want)
	}
	observe(m, 0, 12, false)
	rep := m.ReportThrough(0, 12)
	if rep.Green != 9 || len(rep.Stalls) != 1 || rep.Stalls[0] != (Stall{From: 10, Len: 3}) {
		t.Fatalf("report %+v", rep)
	}
}

// TestMonitorConcurrentMatchesMapMonitor fans the same observations over
// goroutines — the parallel engine's hooks — into both monitors while a
// reader reports and snapshots; the union is order-independent, so they
// must still agree at the end. Run under -race.
func TestMonitorConcurrentMatchesMapMonitor(t *testing.T) {
	const vnodes, horizon, workers = 4, 300, 4
	m, o := NewMonitor(), newMapMonitor()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for k := 1; k <= horizon; k++ {
				for v := VNodeID(0); v < vnodes; v++ {
					out := cha.Output{Instance: cha.Instance(k), Color: cha.Yellow}
					if rng.Intn(5) != 0 {
						out.Color = cha.Green
					}
					m.Observe(v, out)
					o.Observe(v, out)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			m.ReportThrough(VNodeID(i%vnodes), horizon)
			m.Snapshot()
		}
	}()
	wg.Wait()
	wellFormed(t, m)
	sameAccounting(t, m, o, vnodes, horizon)
}
