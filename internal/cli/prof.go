package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profile is the -cpuprofile/-memprofile flag pair: a CPU profile sampled
// for the whole run and a heap profile written at exit. Profiling is
// observation, not simulation state: nothing here feeds back into an
// engine, so the determinism contract holds whether or not it is on.
type Profile struct {
	CPU string
	Mem string
}

// Register installs the profiling flags on fs.
func (p *Profile) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a runtime/pprof CPU profile of the run to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a runtime/pprof heap profile (post-GC live set) to this file at exit")
}

// Profiler holds the open CPU-profile file and the pending heap-profile
// path. With neither flag set it is a no-op: Stop does nothing, so callers
// never need to branch on whether profiling is on.
type Profiler struct {
	cpuFile *os.File
	memPath string
}

// Start begins CPU profiling to p.CPU (when set) and records p.Mem for Stop
// to write a heap profile to (when set). On error nothing is left running
// and no file is left open. The caller must Stop the returned profiler on
// every exit path.
func (p *Profile) Start() (*Profiler, error) {
	pr := &Profiler{memPath: p.Mem}
	if p.CPU == "" {
		return pr, nil
	}
	f, err := os.Create(p.CPU)
	if err != nil {
		return nil, fmt.Errorf("prof: -cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("prof: -cpuprofile: %w", err)
	}
	pr.cpuFile = f
	return pr, nil
}

// Stop flushes both profiles: it stops and closes the CPU profile, then
// runs a GC and writes the heap profile, so the memory numbers reflect
// live retained memory rather than garbage awaiting collection. Stop is
// idempotent and must run before any os.Exit — deferred calls don't.
// Profile-flush failures are reported on stderr rather than returned:
// every caller is already on its way out with the run's real exit code.
func (p *Profiler) Stop() {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "prof: -cpuprofile: %v\n", err)
		}
		p.cpuFile = nil
	}
	if p.memPath != "" {
		path := p.memPath
		p.memPath = ""
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prof: -memprofile: %v\n", err)
			return
		}
		runtime.GC() // materialize live-set numbers in the heap profile
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "prof: -memprofile: %v\n", err)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "prof: -memprofile: %v\n", err)
		}
	}
}
