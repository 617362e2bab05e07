package harness

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"vinfra/internal/metrics"
)

// Options configures one harness run.
type Options struct {
	// Only restricts the run to a comma-separated list of experiment
	// groups or sub-IDs ("" runs everything).
	Only string
	// Quick selects the reduced parameter grids.
	Quick bool
	// Seeds overrides every descriptor's seed list (nil keeps defaults).
	Seeds []int64
	// Workers bounds the cell worker pool: <= 1 runs sequentially, 0 is
	// treated as 1, and negative means runtime.GOMAXPROCS(0).
	Workers int
	// Timing enables wall-clock and allocation sampling. With Timing off
	// every measured quantity is blanked, making the output for a fixed
	// seed list byte-identical run-to-run and across worker counts.
	Timing bool
	// Note is copied verbatim into the report header (the nightly soaks
	// record their date there).
	Note string
}

// Perf is the per-cell performance sample: wall time for the whole cell,
// simulated rounds (as reported via Cell.CountRounds), and the allocation
// deltas read testing.Benchmark-style from runtime.MemStats. Under a
// parallel run the allocation counters are process-wide, so concurrent
// cells bleed into each other; sequential runs give exact per-cell counts.
type Perf struct {
	WallSec      float64 `json:"wall_sec"`
	Rounds       int     `json:"rounds,omitempty"`
	RoundsPerSec float64 `json:"rounds_per_sec,omitempty"`
	// WireBytes is the total transmitted wire bytes the cell reported via
	// Cell.CountBytes — deterministic, unlike the wall/alloc samples, but
	// grouped here because it is a cost measurement, not a result.
	WireBytes  int    `json:"wire_bytes,omitempty"`
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// CellResult is one executed cell.
type CellResult struct {
	Label  string
	Seed   int64
	Params Params
	Rows   []Row
	Perf   *Perf // nil when timing is disabled
}

// ExperimentResult groups the cells of one descriptor.
type ExperimentResult struct {
	Desc  Descriptor
	Cells []CellResult
}

// Suite is the outcome of a harness run.
type Suite struct {
	GoVersion   string
	Machine     string
	Note        string
	Quick       bool
	Timing      bool
	Experiments []ExperimentResult
}

// Run executes the selected experiments cell by cell. Cells are fanned out
// over a bounded worker pool and merged back in registry order, so the
// resulting Suite is independent of the worker count (timing samples
// aside).
func Run(o Options) (*Suite, error) {
	descs, err := Select(o.Only)
	if err != nil {
		return nil, err
	}

	type job struct {
		desc *Descriptor
		di   int // experiment index
		ci   int // cell index within the experiment
		p    Params
		seed int64
	}
	suite := &Suite{
		GoVersion: runtime.Version(),
		Machine:   fmt.Sprintf("%s/%s cpus=%d", runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		Note:      o.Note,
		Quick:     o.Quick,
		Timing:    o.Timing,
	}
	var jobs []job
	for di := range descs {
		d := &descs[di]
		seeds := d.Seeds
		if len(o.Seeds) > 0 {
			seeds = o.Seeds
		}
		grid := d.Grid(o.Quick)
		res := ExperimentResult{Desc: *d, Cells: make([]CellResult, 0, len(grid)*len(seeds))}
		for _, p := range grid {
			for _, seed := range seeds {
				res.Cells = append(res.Cells, CellResult{Label: p.Label, Seed: seed, Params: p})
				jobs = append(jobs, job{desc: d, di: di, ci: len(res.Cells) - 1, p: p, seed: seed})
			}
		}
		suite.Experiments = append(suite.Experiments, res)
	}

	runCell := func(j job) {
		cell := &Cell{Params: j.p, Seed: j.seed}
		out := &suite.Experiments[j.di].Cells[j.ci]
		if !o.Timing {
			rows := j.desc.Run(cell)
			for _, r := range rows {
				for i := range r {
					r[i] = r[i].blank()
				}
			}
			out.Rows = rows
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		rows := j.desc.Run(cell)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		perf := &Perf{
			WallSec:    wall.Seconds(),
			Rounds:     cell.rounds,
			WireBytes:  cell.bytes,
			Allocs:     after.Mallocs - before.Mallocs,
			AllocBytes: after.TotalAlloc - before.TotalAlloc,
		}
		if perf.Rounds > 0 && perf.WallSec > 0 {
			perf.RoundsPerSec = float64(perf.Rounds) / perf.WallSec
		}
		out.Rows = rows
		out.Perf = perf
	}

	workers := o.Workers
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		for _, j := range jobs {
			runCell(j)
		}
		return suite, nil
	}
	// The sim.WithParallel idiom: a fixed pool drains a work queue, every
	// worker writes only its own cell's slot, and slots were laid out in
	// registry order up front — the merge is deterministic by construction.
	queue := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				runCell(j)
			}
		}()
	}
	for _, j := range jobs {
		queue <- j
	}
	close(queue)
	wg.Wait()
	return suite, nil
}

// RenderText prints the suite as the classic chabench tables, grouped by
// experiment. When a descriptor ran with more than one seed, a trailing
// "seed" column distinguishes the replicated rows.
func (s *Suite) RenderText(w io.Writer) {
	lastGroup := ""
	for _, exp := range s.Experiments {
		if exp.Desc.Group != lastGroup {
			fmt.Fprintf(w, "### %s\n\n", exp.Desc.Group)
			lastGroup = exp.Desc.Group
		}
		multiSeed := false
		for _, c := range exp.Cells {
			if c.Seed != exp.Cells[0].Seed {
				multiSeed = true
				break
			}
		}
		cols := exp.Desc.Columns
		if multiSeed {
			cols = append(append([]string(nil), cols...), "seed")
		}
		t := metrics.NewTable(exp.Desc.Title, cols...)
		t.Notes = exp.Desc.Notes
		for _, c := range exp.Cells {
			for _, r := range c.Rows {
				cells := Texts(r)
				if multiSeed {
					cells = append(cells, fmt.Sprintf("%d", c.Seed))
				}
				t.AddRow(cells...)
			}
		}
		t.Render(w)
	}
}
