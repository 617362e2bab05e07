package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vinfra/internal/harness"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_quick_seeds12.json from the current run")

// goldenCache memoizes suite runs per worker count: the golden tests need
// the same (deterministic) bytes for workers 0 and 4, and each run is a
// full quick-suite execution — no reason to pay for it twice.
var (
	goldenMu    sync.Mutex
	goldenCache = map[int][]byte{}
)

// goldenSuite is the run the golden file pins: the whole quick suite,
// seeds 1 and 2 (the `chabench -json -quick -seeds 1,2` invocation). The
// header is canonicalized because the Go version and CPU count
// legitimately vary across machines; everything else must be byte-stable.
func goldenSuite(t *testing.T, workers int) []byte {
	t.Helper()
	goldenMu.Lock()
	defer goldenMu.Unlock()
	if b, ok := goldenCache[workers]; ok {
		return b
	}
	suite, err := harness.Run(harness.Options{
		Quick:   true,
		Seeds:   []int64{1, 2},
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	suite.GoVersion = ""
	suite.Machine = ""
	var buf bytes.Buffer
	if err := suite.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	goldenCache[workers] = buf.Bytes()
	return goldenCache[workers]
}

// firstDiff reports the line around the first differing byte.
func firstDiff(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	hiA, hiB := i+80, i+80
	if hiA > len(a) {
		hiA = len(a)
	}
	if hiB > len(b) {
		hiB = len(b)
	}
	return "…" + string(a[lo:hiA]) + "… vs …" + string(b[lo:hiB]) + "…"
}

// TestJSONParallelMatchesSequential is the determinism acceptance test:
// the `chabench -json -seeds 1,2` report must be byte-identical between a
// sequential and a parallel (worker-pool) run.
func TestJSONParallelMatchesSequential(t *testing.T) {
	seq := goldenSuite(t, 0)
	par := goldenSuite(t, 4)
	if !bytes.Equal(seq, par) {
		t.Fatalf("parallel run diverged from sequential run at: %s", firstDiff(seq, par))
	}
}

// TestJSONGoldenFile pins the deterministic report bytes across commits:
// any change to experiment results (for seeds 1 and 2, quick grids) shows
// up as a golden-file diff that must be reviewed and regenerated with
// `go test ./internal/experiments/ -run Golden -update-golden`.
func TestJSONGoldenFile(t *testing.T) {
	got := goldenSuite(t, 4)
	path := filepath.Join("testdata", "golden_quick_seeds12.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report differs from golden file (run with -update-golden after reviewing); first diff at: %s",
			firstDiff(want, got))
	}
}
