package harness

import (
	"fmt"
	"io"
	"runtime"
	"sync"
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
	// Workers bounds the cell worker pool: 1 runs sequentially and 0 (or
	// less) means runtime.GOMAXPROCS(0), as sim.WithWorkers reads it.
	Workers int
	// Note is copied verbatim into the report header (the nightly soaks
	// record their date there).
	Note string
}

// CellResult is one executed cell.
type CellResult struct {
	Label  string
	Seed   int64
	Params Params
	Rows   []Row
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
	Experiments []ExperimentResult
}

// Run executes the selected experiments cell by cell. Cells are fanned out
// over a bounded worker pool and merged back in registry order, so the
// resulting Suite is independent of the worker count.
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
		suite.Experiments[j.di].Cells[j.ci].Rows = j.desc.Run(&Cell{Params: j.p, Seed: j.seed})
	}

	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 {
		for _, j := range jobs {
			runCell(j)
		}
		return suite, nil
	}
	// The sim.WithWorkers idiom: a fixed pool drains a work queue, every
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
		t := NewTable(exp.Desc.Title, cols...)
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
