package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"vinfra/tools/detlint/internal/load"
)

// TestRepoIsClean is the gate the CI lint job enforces: the vinfra tree
// must carry zero detlint findings. A finding here means either new code
// broke the determinism contract or an analyzer grew a false positive —
// both block.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole parent module")
	}
	pkgs, err := load.Packages("../..", "./...")
	if err != nil {
		t.Fatalf("loading vinfra: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded from ../..")
	}
	for _, pkg := range pkgs {
		for _, f := range runPackage(pkg, pkg.Fset) {
			t.Errorf("%s", f)
		}
	}
}

// buildDetlint compiles this command into dir and returns the binary path.
func buildDetlint(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "detlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building detlint: %v\n%s", err, out)
	}
	return bin
}

// TestVetHandshake pins the -V=full tool-ID handshake cmd/go requires of a
// -vettool: `<name> version <version>` with a non-"devel" version.
func TestVetHandshake(t *testing.T) {
	bin := buildDetlint(t, t.TempDir())
	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("detlint -V=full: %v", err)
	}
	fields := strings.Fields(strings.TrimSpace(string(out)))
	if len(fields) != 3 || fields[1] != "version" || fields[2] == "devel" {
		t.Fatalf("handshake output %q; want `detlint version <non-devel>`", out)
	}
}

// TestVetToolProtocol drives the real go command against a scratch module
// named vinfra (so the package policy applies) containing one walltime
// violation, and checks that `go vet -vettool=detlint` fails with the
// finding — the full unitchecker protocol end to end: cfg parsing, vetx
// output, export-data importing, exit status.
func TestVetToolProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a scratch module with the go command")
	}
	bin := buildDetlint(t, t.TempDir())

	mod := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(mod, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module vinfra\n\ngo 1.22\n")
	write("internal/p/p.go", `package p

import "time"

// Stamp leaks the wall clock into a deterministic package.
func Stamp() int64 { return time.Now().UnixNano() }
`)
	write("internal/q/q.go", `package q

// Round is clean: no finding, vet must pass this package.
func Round(r int) int { return r + 1 }
`)

	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = mod
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet passed a walltime violation; output:\n%s", out)
	}
	if !strings.Contains(string(out), "wall clock") {
		t.Fatalf("go vet failed without the walltime finding:\n%s", out)
	}

	// Fix the violation; vet must now pass (and the clean package must not
	// have produced spurious findings either way).
	write("internal/p/p.go", `package p

// Stamp now derives from the round counter.
func Stamp(round int64) int64 { return round * 1000 }
`)
	cmd = exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = mod
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet failed on a clean tree: %v\n%s", err, out)
	}
}

// TestPolicy pins which analyzers the driver applies where.
func TestPolicy(t *testing.T) {
	names := func(importPath string) string {
		var ns []string
		for _, a := range analyzersFor(importPath) {
			ns = append(ns, a.Name)
		}
		return strings.Join(ns, ",")
	}
	cases := []struct {
		importPath string
		want       string
	}{
		{"vinfra/internal/sim", "maporder,wirecomplete,globalrand,seedflow,walltime"},
		// The region-sharded engine's packages inherit the full
		// deterministic policy: the shard merge order and per-shard medium
		// seeds are exactly what maporder and seedflow exist to protect.
		{"vinfra/internal/shard", "maporder,wirecomplete,globalrand,seedflow,walltime"},
		{"vinfra/internal/experiments", "maporder,wirecomplete,globalrand,seedflow,walltime"},
		{"vinfra/internal/harness", "maporder,wirecomplete,globalrand,seedflow,walltime"},
		// The deployment-spec package is pure configuration and joins the
		// full deterministic policy; the HTTP service is wall-clock service
		// code (stepping rates, shutdown timeouts) but still must not leak
		// map order or unseeded randomness into responses.
		{"vinfra/internal/spec", "maporder,wirecomplete,globalrand,seedflow,walltime"},
		{"vinfra/internal/service", "maporder,wirecomplete,globalrand,seedflow"},
		{"vinfra", "maporder,wirecomplete,globalrand,seedflow,walltime"},
		{"vinfra/cmd/chabench", "maporder,wirecomplete"},
		{"vinfra/cmd/visimd", "maporder,wirecomplete"},
		{"vinfra/examples/routing", "maporder,wirecomplete"},
		{"vinfra/internal/sim.test", ""},
		{"fmt", ""},
		{"github.com/other/mod", ""},
	}
	for _, c := range cases {
		if got := names(c.importPath); got != c.want {
			t.Errorf("analyzersFor(%q) = %q, want %q", c.importPath, got, c.want)
		}
	}
}

// TestServicePolicyFixtures drives the driver over a scratch vinfra module
// shaped like the visimd stack — one positive and one negative fixture per
// policy row added for the service:
//
//   - internal/service may read the wall clock (stepping rates are its
//     job) but must still emit map contents in sorted order;
//   - internal/spec is pure configuration and gets the full deterministic
//     policy, wall clock included — and so does internal/harness, which
//     was exempt while it sampled per-cell wall time;
//   - cmd/visimd is command code: map order still matters, the clock is
//     free.
func TestServicePolicyFixtures(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a scratch module with the go command")
	}
	mod := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(mod, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module vinfra\n\ngo 1.22\n")
	write("internal/service/svc.go", `package service

import (
	"fmt"
	"time"
)

// Rate reads the wall clock: allowed in the service package.
func Rate(stepped int, since time.Time) float64 {
	return float64(stepped) / time.Since(since).Seconds()
}

// Dump leaks map iteration order into output: still a finding here.
func Dump(sims map[string]int) {
	for name, vr := range sims {
		fmt.Printf("%s=%d\n", name, vr)
	}
}
`)
	write("internal/spec/spec.go", `package spec

import "time"

// Stamp reads the wall clock inside the spec package: a finding.
func Stamp() int64 { return time.Now().UnixNano() }
`)
	write("internal/harness/run.go", `package harness

import "time"

// Wall times a cell: a finding since the harness stopped reporting host time.
func Wall(run func()) time.Duration {
	start := time.Now()
	run()
	return time.Since(start)
}
`)
	write("cmd/visimd/main.go", `package main

import (
	"fmt"
	"time"
)

func main() {
	fmt.Println(time.Now()) // command code: the clock is free
	m := map[string]int{"a": 1}
	for k, v := range m {
		fmt.Printf("%s=%d\n", k, v) // ... but map order still is not
	}
}
`)

	pkgs, err := load.Packages(mod, "./...")
	if err != nil {
		t.Fatalf("loading scratch module: %v", err)
	}
	found := map[string][]string{}
	for _, pkg := range pkgs {
		for _, f := range runPackage(pkg, pkg.Fset) {
			found[pkg.ImportPath] = append(found[pkg.ImportPath], f.analyzer)
		}
	}
	has := func(path, analyzer string) bool {
		for _, a := range found[path] {
			if a == analyzer {
				return true
			}
		}
		return false
	}
	if has("vinfra/internal/service", "walltime") {
		t.Errorf("walltime fired in internal/service (it is exempt): %v", found["vinfra/internal/service"])
	}
	if !has("vinfra/internal/service", "maporder") {
		t.Errorf("maporder did not fire in internal/service: %v", found["vinfra/internal/service"])
	}
	if !has("vinfra/internal/spec", "walltime") {
		t.Errorf("walltime did not fire in internal/spec: %v", found["vinfra/internal/spec"])
	}
	if !has("vinfra/internal/harness", "walltime") {
		t.Errorf("walltime did not fire in internal/harness: %v", found["vinfra/internal/harness"])
	}
	if has("vinfra/cmd/visimd", "walltime") {
		t.Errorf("walltime fired in cmd/visimd: %v", found["vinfra/cmd/visimd"])
	}
	if !has("vinfra/cmd/visimd", "maporder") {
		t.Errorf("maporder did not fire in cmd/visimd: %v", found["vinfra/cmd/visimd"])
	}
}
