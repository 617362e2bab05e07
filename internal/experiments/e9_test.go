package experiments

import "testing"

func TestRoutingLatencyDeliversEverything(t *testing.T) {
	rows := gridRows(t, e9aDesc, true)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if delivered := column[float64](t, rows, 2); !allEqual(delivered, 1) {
		t.Errorf("delivered fraction per chain length = %v, want all 1", delivered)
	}
}

func TestRoutingLatencyGrowsWithHops(t *testing.T) {
	rows := gridRows(t, e9aDesc, true)
	if hops := column[int64](t, rows, 0); !increasing(hops) {
		t.Fatalf("chain-length sweep not increasing: %v", hops)
	}
	if lats := column[float64](t, rows, 3); !increasing(lats) {
		t.Errorf("latency should grow with chain length: %v", lats)
	}
}

func TestLockThroughputNoViolations(t *testing.T) {
	rows := gridRows(t, e9bDesc, true)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	if v := column[int64](t, rows, 3); !allEqual(v, 0) {
		t.Errorf("mutex violations per client count = %v, want all 0", v)
	}
	for i, completed := range column[int64](t, rows, 1) {
		if completed == 0 {
			t.Errorf("clients=%s: no lock cycles completed", rows[i][0].Text)
		}
	}
}
