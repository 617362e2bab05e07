package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
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

// exportAllow lists the exported funcs, types and methods under internal/
// that only tests reach on purpose: instruments a test drives, not dead
// capability.
var exportAllow = map[string]string{
	"vinfra/internal/radio.NewPartition":       "the radio tests' constructor of a partition adversary",
	"vinfra/internal/vi.DecodeJoinAckMsg":      "closes the join-ack codec pair that wirecomplete requires; the fuzz test drives it",
	"vinfra/internal/vi.JoinAckMsg.AppendTo":   "the encoding half of the join-ack codec pair DecodeJoinAckMsg closes",
	"vinfra/internal/apps.DeliverMsg":          "builds the delivery broadcast the router tests parse",
	"vinfra/internal/apps.RelayMsg":            "builds the relay broadcast the greedy-rule test feeds a virtual node",
	"vinfra/internal/apps.RegisterProgram":     "the failover test's virtual node program, which no spec app names",
	"vinfra/internal/apps.RegisterWriter":      "the failover test's writing client for RegisterProgram",
	"vinfra/internal/sim.Engine.Fork":          "the deep copy a planned fork verb builds on; the fork tests pin it against checkpoint restore",
	"vinfra/internal/cha.Recorder.MarkCrashed": "tells the liveness oracle which nodes a cha or baseline test crashed; no experiment crashes a recorded node",
	"vinfra/internal/cha.Report.Violations":    "the one-line verdict the cha and baseline tests fail with; experiments read the counts",
}

// TestExportsHaveCallers holds production code to what a front end runs:
// every exported package-level func or type under internal/, and every
// exported method of an exported type there, must be reachable from
// non-test code of the root module or bench/ (see unusedExports).
// Capability only its own tests reach is deleted, not kept; exportAllow
// names the exceptions.
func TestExportsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole parent module and bench/")
	}
	root, err := load.Packages("../..", "./...")
	if err != nil {
		t.Fatalf("loading vinfra: %v", err)
	}
	bench, err := load.Packages("../../bench", "./...")
	if err != nil {
		t.Fatalf("loading vinfra/bench: %v", err)
	}
	for _, f := range unusedExports(root, bench, exportAllow) {
		t.Error(f)
	}
}

// TestExportsGateFixture runs the exports check on a scratch module: a
// method only a _test.go file calls is flagged; a method that satisfies an
// interface, and one a second module calls (standing in for bench/), are
// spared; and an exportAllow entry that names nothing is reported.
func TestExportsGateFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a scratch module with the go command")
	}
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("mod/go.mod", "module vinfra\n\ngo 1.22\n")
	write("mod/internal/p/p.go", `package p

import "fmt"

// T is what the front end builds.
type T struct{ n int }

// New is the front end's constructor.
func New() *T { return &T{} }

// Step is what the front end calls.
func (t *T) Step() { t.n++ }

// String satisfies fmt.Stringer: no call site names it.
func (t *T) String() string { return fmt.Sprint(t.n) }

// Remote is called only from the second module.
func (t *T) Remote() int { return t.n }

// Probe is called only from a test.
func (t *T) Probe() int { return t.n }

// Kept is called only from a test and is allowed.
func (t *T) Kept() int { return t.n }

// Self calls only itself.
func (t *T) Self(k int) int {
	if k == 0 {
		return t.n
	}
	return t.Self(k - 1)
}

// private is unexported: the gate does not look at it.
func (t *T) private() {}
`)
	write("mod/internal/p/p_test.go", `package p

import "testing"

func TestProbe(t *testing.T) {
	x := New()
	if x.Probe() != x.Kept() {
		t.Fatal()
	}
}
`)
	write("mod/cmd/run/main.go", `package main

import (
	"fmt"

	"vinfra/internal/p"
)

func main() {
	t := p.New()
	t.Step()
	fmt.Println(t)
}
`)
	write("other/go.mod", "module vinfra/bench\n\ngo 1.22\n\nrequire vinfra v0.0.0\n\nreplace vinfra => ../mod\n")
	write("other/main.go", `package main

import "vinfra/internal/p"

func main() { println(p.New().Remote()) }
`)
	root, err := load.Packages(filepath.Join(dir, "mod"), "./...")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	other, err := load.Packages(filepath.Join(dir, "other"), "./...")
	if err != nil {
		t.Fatalf("loading second fixture module: %v", err)
	}
	allow := map[string]string{
		"vinfra/internal/p.T.Kept": "allowed",
		"vinfra/internal/p.T.Gone": "names nothing",
	}
	got := unusedExports(root, other, allow)
	want := []string{
		"vinfra/internal/p.T.Probe has no caller outside tests",
		"vinfra/internal/p.T.Self has no caller outside tests",
		"exportAllow names vinfra/internal/p.T.Gone, which no longer exists",
	}
	if len(got) != len(want) {
		t.Fatalf("got %d findings, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i, w := range want {
		if !strings.HasSuffix(got[i], w) {
			t.Errorf("finding %d = %q, want one ending %q", i, got[i], w)
		}
	}
}

// unusedExports checks the exported surface under internal/ of root
// against the non-test code of root and extra (the module bench/ is). A
// package-level func or type must be referenced outside its own
// declaration (a type's methods do not keep it alive). An exported method
// of an exported type must be referenced outside its own body, or
// implement a method of an interface the type (or its pointer) satisfies,
// as String does fmt.Stringer. allow names the exceptions; an entry that
// gained a caller or names nothing is a finding too. Findings come in
// declaration order, then the allow entries sorted.
func unusedExports(root, extra []*load.Package, allow map[string]string) []string {
	pkgs := append(append([]*load.Package(nil), root...), extra...)
	used := map[string]bool{}
	for _, pkg := range pkgs {
		markReferences(pkg, used)
	}
	ifaces, instances := interfacesOf(pkgs)
	var out []string
	check := func(pkg *load.Package, obj types.Object, key string) {
		if used[key] {
			return
		}
		if _, ok := allow[key]; ok {
			return
		}
		out = append(out, fmt.Sprintf("%s: %s has no caller outside tests", pkg.Fset.Position(obj.Pos()), key))
	}
	declared := map[string]bool{}
	for _, pkg := range root {
		if !strings.HasPrefix(pkg.ImportPath, "vinfra/internal/") {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			key := objectKey(obj)
			if !obj.Exported() || key == "" {
				continue
			}
			declared[key] = true
			check(pkg, obj, key)
			named, ok := obj.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() {
					continue
				}
				mkey := methodKey(m)
				declared[mkey] = true
				if implements(named, m.Name(), ifaces, instances) {
					used[mkey] = true
				}
				check(pkg, m, mkey)
			}
		}
	}
	keys := make([]string, 0, len(allow))
	for key := range allow {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		switch {
		case used[key]:
			out = append(out, fmt.Sprintf("exportAllow names %s, which non-test code now reaches", key))
		case !declared[key]:
			out = append(out, fmt.Sprintf("exportAllow names %s, which no longer exists", key))
		}
	}
	return out
}

// objectKey names a package-level func or type as "importpath.Name"; any
// other object (a method, field, var or const) yields "".
func objectKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func:
		if o.Type().(*types.Signature).Recv() != nil {
			return ""
		}
	case *types.TypeName:
		if o.Parent() != nil && o.Parent() != o.Pkg().Scope() {
			return "" // a type declared inside a function
		}
	default:
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// methodKey names a method of a package-level named type as
// "importpath.Type.Method"; anything else (a func, an interface's method,
// a method of a type declared inside a function) yields "".
func methodKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	named, ok := typ.(*types.Named)
	if !ok {
		return ""
	}
	tkey := objectKey(named.Origin().Obj())
	if tkey == "" {
		return ""
	}
	return tkey + "." + fn.Name()
}

// implements reports whether named or its pointer satisfies an interface
// in ifaces that has a method called name. A generic type is asked through
// the instances non-test code makes of it.
func implements(named *types.Named, name string, ifaces map[string][]*types.Interface, instances map[*types.TypeName][]*types.Named) bool {
	typs := []*types.Named{named}
	if named.TypeParams().Len() > 0 {
		typs = instances[named.Obj()]
	}
	for _, typ := range typs {
		ptr := types.NewPointer(typ)
		for _, iface := range ifaces[name] {
			if types.Implements(typ, iface) || types.Implements(ptr, iface) {
				return true
			}
		}
	}
	return false
}

// interfacesOf indexes by method name every interface the non-test code of
// pkgs can name: the package-level interfaces of pkgs and of everything
// they import, directly or not, and the interface types their expressions
// have (an inline interface in a type assertion, say). It also collects
// the instances of generic types those expressions have.
func interfacesOf(pkgs []*load.Package) (map[string][]*types.Interface, map[*types.TypeName][]*types.Named) {
	ifaces := map[string][]*types.Interface{}
	instances := map[*types.TypeName][]*types.Named{}
	seen := map[*types.Interface]bool{}
	add := func(typ types.Type) {
		iface, ok := typ.Underlying().(*types.Interface)
		if !ok || seen[iface] {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			ifaces[name] = append(ifaces[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range pkgs {
		walk(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.Type == nil {
				continue
			}
			add(tv.Type)
			typ := tv.Type
			if p, ok := typ.(*types.Pointer); ok {
				typ = p.Elem()
			}
			if n, ok := typ.(*types.Named); ok && n.TypeArgs().Len() > 0 {
				instances[n.Origin().Obj()] = append(instances[n.Origin().Obj()], n)
			}
		}
	}
	return ifaces, instances
}

// markReferences adds to used every package-level func or type that pkg
// names or whose values it handles, and every method it names, skipping a
// declaration's references to itself (a recursive call, a method's
// receiver).
func markReferences(pkg *load.Package, used map[string]bool) {
	var mark func(typ types.Type, owner string)
	mark = func(typ types.Type, owner string) {
		switch t := typ.(type) {
		case *types.Named:
			if key := objectKey(t.Obj()); key != "" && key != owner {
				used[key] = true
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				mark(t.TypeArgs().At(i), owner)
			}
		case *types.Pointer:
			mark(t.Elem(), owner)
		case *types.Slice:
			mark(t.Elem(), owner)
		case *types.Array:
			mark(t.Elem(), owner)
		case *types.Map:
			mark(t.Key(), owner)
			mark(t.Elem(), owner)
		case *types.Chan:
			mark(t.Elem(), owner)
		}
	}
	for _, file := range pkg.Syntax {
		for _, decl := range file.Decls {
			owner, self := declOwner(pkg, decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					obj := pkg.Info.Uses[id]
					if key := objectKey(obj); key != "" && key != owner {
						used[key] = true
					}
					if fn, ok := obj.(*types.Func); ok {
						if key := methodKey(fn.Origin()); key != "" && key != self {
							used[key] = true
						}
					}
				}
				if e, ok := n.(ast.Expr); ok {
					if tv, ok := pkg.Info.Types[e]; ok && tv.Type != nil {
						mark(tv.Type, owner)
					}
				}
				return true
			})
		}
	}
}

// declOwner is the key of the object a top-level declaration defines: the
// func, or the receiver's type for a method, or the type of a one-type
// declaration; "" for anything else. For a method, self is the method's
// own key.
func declOwner(pkg *load.Package, decl ast.Decl) (owner, self string) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil {
			return objectKey(pkg.Info.Defs[d.Name]), ""
		}
		self = methodKey(pkg.Info.Defs[d.Name])
		recv := d.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		switch r := recv.(type) {
		case *ast.IndexExpr:
			recv = r.X
		case *ast.IndexListExpr:
			recv = r.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			return objectKey(pkg.Info.Uses[id]), self
		}
	case *ast.GenDecl:
		if len(d.Specs) == 1 {
			if ts, ok := d.Specs[0].(*ast.TypeSpec); ok {
				return objectKey(pkg.Info.Defs[ts.Name]), ""
			}
		}
	}
	return "", self
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
		{"vinfra/cmd/visim", "maporder,wirecomplete"},
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
