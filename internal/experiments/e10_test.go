package experiments

import "testing"

func TestDeliveryScalingTable(t *testing.T) {
	rows := gridRows(t, e10Desc, true)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	nodes, txs := column[int64](t, rows, 0), column[int64](t, rows, 1)
	scan, grid := column[float64](t, rows, 2), column[float64](t, rows, 3)
	for i, speedup := range column[float64](t, rows, 4) {
		if txs[i] <= 0 || txs[i] >= nodes[i] {
			t.Errorf("n=%d: %d transmitters", nodes[i], txs[i])
		}
		if scan[i] <= 0 || grid[i] <= 0 || speedup <= 0 {
			t.Errorf("n=%d: scan %vs, grid %vs, speedup %v: nothing was timed", nodes[i], scan[i], grid[i], speedup)
		}
		for j := 2; j <= 4; j++ {
			if !rows[i][j].Measured {
				t.Errorf("n=%d: column %q is wall-clock-derived but not marked Measured", nodes[i], e10Desc.Columns[j])
			}
		}
	}
}
