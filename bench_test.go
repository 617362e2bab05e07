package vinfra_test

// One sub-benchmark per experiment table: BenchmarkExperiments/<ID> times
// regenerating that table's quick grid at seed 1 through the harness
// (`chabench -quick -only <ID> -seeds 1`), so
// `go test -bench=Experiments -benchmem` walks every figure of the
// evaluation. E1 also reports how many Figure 2 rows match the paper.

import (
	"testing"

	_ "vinfra/internal/experiments" // registers E1..E14 descriptors
	"vinfra/internal/harness"
)

func BenchmarkExperiments(b *testing.B) {
	for _, d := range harness.All() {
		b.Run(d.ID, func(b *testing.B) {
			var suite *harness.Suite
			for i := 0; i < b.N; i++ {
				var err error
				suite, err = harness.Run(harness.Options{Only: d.ID, Quick: true, Seeds: []int64{1}})
				if err != nil {
					b.Fatal(err)
				}
			}
			if d.ID == "E1" {
				matches := 0
				for _, r := range suite.Experiments[0].Cells[0].Rows {
					if r[len(r)-1].V == true {
						matches++
					}
				}
				b.ReportMetric(float64(matches), "rows-matching-paper")
			}
		})
	}
}
