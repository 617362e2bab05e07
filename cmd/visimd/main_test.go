package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildBin compiles one command package into a temp dir so these tests
// exercise real process boundaries — the same pattern as the chabench
// soak tests.
func buildBin(t *testing.T, pkg, name string) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command("go", "build", "-o", bin, pkg)
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// daemon is one running visimd process.
type daemon struct {
	cmd *exec.Cmd
	url string
}

// startDaemon boots visimd on an ephemeral port and waits for its
// readiness line.
func startDaemon(t *testing.T, bin, stateDir string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-state", stateDir)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting visimd: %v", err)
	}
	d := &daemon{cmd: cmd}
	t.Cleanup(func() {
		if d.cmd.Process != nil {
			d.cmd.Process.Kill()
			d.cmd.Wait()
		}
	})
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if _, addr, found := strings.Cut(line, "listening on http://"); found {
			d.url = "http://" + strings.TrimSpace(addr)
			// Keep draining stderr so the daemon never blocks on the pipe.
			go io.Copy(io.Discard, stderr)
			return d
		}
	}
	t.Fatalf("visimd exited before its readiness line (scan err %v)", sc.Err())
	return nil
}

// kill hard-kills the daemon process (the crash in crash-restart).
func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatalf("kill: %v", err)
	}
	d.cmd.Wait()
}

func httpDo(t *testing.T, method, url, body string, wantCode int) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s %s: reading body: %v", method, url, err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s: status %d (want %d): %s", method, url, resp.StatusCode, wantCode, b)
	}
	return b
}

const specNoFault = `{"version": "vinfra-spec/v1", "seed": 9, "vrounds": 8,
	"grid": {"cols": 2, "rows": 1}, "devices": {"pingers": true}}`

const specWithFault = `{"version": "vinfra-spec/v1", "seed": 9, "vrounds": 8,
	"grid": {"cols": 2, "rows": 1}, "devices": {"pingers": true},
	"faults": [{"kind": "crash_burst", "from": 30, "until": 60, "period": 10, "p": 0.4}]}`

const faultDoc = `{"kind": "crash_burst", "from": 30, "until": 60, "period": 10, "p": 0.4}`

// runVisimSpec runs visim -spec on a spec document and returns the final
// checkpoint bytes.
func runVisimSpec(t *testing.T, visim, doc string) []byte {
	t.Helper()
	dir := t.TempDir()
	specPath := filepath.Join(dir, "world.json")
	if err := os.WriteFile(specPath, []byte(doc), 0o644); err != nil {
		t.Fatalf("writing spec: %v", err)
	}
	ckptPath := filepath.Join(dir, "final.ckpt")
	cmd := exec.Command(visim, "-spec", specPath, "-checkpoint", ckptPath)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("visim -spec: %v\n%s", err, out)
	}
	b, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatalf("reading visim checkpoint: %v", err)
	}
	return b
}

// refused runs bin with a stray word after its flags and requires the usage
// exit — status 2, the word named on stderr, nothing on stdout — where the
// flag package alone would drop the word and run (for visimd: listen).
func refused(t *testing.T, bin string, args ...string) {
	t.Helper()
	// The deadline is for a visimd that did not refuse: it would serve forever.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if exit := new(exec.ExitError); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("%s %v: err = %v, want exit status 2", filepath.Base(bin), args, err)
	}
	if want := `unexpected argument "stray"`; !strings.Contains(stderr.String(), want) {
		t.Errorf("%s %v: stderr lacks %q:\n%s", filepath.Base(bin), args, want, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("%s %v: ran something before failing:\n%s", filepath.Base(bin), args, stdout.String())
	}
}

// TestHTTPMatchesVisimSpec is the API determinism acceptance pin: the same
// spec driven over HTTP — including a fault injected mid-run via POST
// faults — yields checkpoint bytes (engine + medium + monitor snapshots)
// byte-identical to visim -spec with the fault listed in the spec.
func TestHTTPMatchesVisimSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the visim and visimd binaries")
	}
	visim := buildBin(t, "vinfra/cmd/visim", "visim")
	visimd := buildBin(t, ".", "visimd")
	refused(t, visim, "-vrounds", "1", "stray")
	refused(t, visimd, "-addr", "127.0.0.1:0", "stray")
	want := runVisimSpec(t, visim, specWithFault)

	d := startDaemon(t, visimd, t.TempDir())
	httpDo(t, "POST", d.url+"/v1/sims", `{"name": "pin", "spec": `+specNoFault+`}`, http.StatusCreated)
	// Step one virtual round (14 radio rounds — before the fault window
	// opens at round 30), inject the same fault, finish the horizon.
	httpDo(t, "POST", d.url+"/v1/sims/pin/step", `{"vrounds": 1}`, http.StatusOK)
	httpDo(t, "POST", d.url+"/v1/sims/pin/faults", faultDoc, http.StatusOK)
	httpDo(t, "POST", d.url+"/v1/sims/pin/step", `{"vrounds": 7}`, http.StatusOK)
	got := httpDo(t, "GET", d.url+"/v1/sims/pin/checkpoint", "", http.StatusOK)

	if len(got) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("HTTP-driven checkpoint (%d bytes) differs from visim -spec (%d bytes)", len(got), len(want))
	}
	// The effective spec served back is the reference spec: re-runnable.
	eff := httpDo(t, "GET", d.url+"/v1/sims/pin/spec", "", http.StatusOK)
	if !strings.Contains(string(eff), `"crash_burst"`) {
		t.Fatalf("effective spec lost the injected fault:\n%s", eff)
	}
}

// TestDaemonKillAndRestore is the crash-restart contract across real
// processes: kill -9 a daemon whose tenant checkpointed, boot a fresh one
// on the same state directory, and the tenant resumes where it left off —
// finishing byte-identical to an uninterrupted visim -spec run.
func TestDaemonKillAndRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the visim and visimd binaries")
	}
	visim := buildBin(t, "vinfra/cmd/visim", "visim")
	visimd := buildBin(t, ".", "visimd")
	want := runVisimSpec(t, visim, specNoFault)

	state := t.TempDir()
	d1 := startDaemon(t, visimd, state)
	httpDo(t, "POST", d1.url+"/v1/sims", `{"name": "phoenix", "spec": `+specNoFault+`}`, http.StatusCreated)
	httpDo(t, "POST", d1.url+"/v1/sims/phoenix/step", `{"vrounds": 3}`, http.StatusOK)
	httpDo(t, "POST", d1.url+"/v1/sims/phoenix/checkpoint", "", http.StatusOK)
	d1.kill(t)

	d2 := startDaemon(t, visimd, state)
	st := httpDo(t, "GET", d2.url+"/v1/sims/phoenix", "", http.StatusOK)
	if !strings.Contains(string(st), `"vround": 3`) {
		t.Fatalf("recovered tenant not at vround 3:\n%s", st)
	}
	httpDo(t, "POST", d2.url+"/v1/sims/phoenix/step", `{"vrounds": 5}`, http.StatusOK)
	got := httpDo(t, "GET", d2.url+"/v1/sims/phoenix/checkpoint", "", http.StatusOK)
	if !bytes.Equal(got, want) {
		t.Fatal("resumed run after kill -9 diverged from an uninterrupted visim -spec run")
	}

	// The daemon exposes both halves of the story on /metrics.
	m := string(httpDo(t, "GET", d2.url+"/metrics", "", http.StatusOK))
	for _, wantLine := range []string{
		`vinfra_sim_vround{sim="phoenix"} 8`,
		`vinfra_vnode_availability{sim="phoenix",vnode="0"} 1.0000`,
	} {
		if !strings.Contains(m, wantLine) {
			t.Fatalf("metrics missing %q:\n%s", wantLine, m)
		}
	}
}

// TestVisimDumpSpecRoundTrips pins the flag-to-spec translation: the spec
// visim -dump-spec prints runs identically through -spec.
func TestVisimDumpSpecRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the visim binary")
	}
	visim := buildBin(t, "vinfra/cmd/visim", "visim")
	out, err := exec.Command(visim, "-grid", "2x1", "-targets", "1", "-vrounds", "4", "-dump-spec").Output()
	if err != nil {
		t.Fatalf("visim -dump-spec: %v", err)
	}
	dir := t.TempDir()
	specPath := filepath.Join(dir, "world.json")
	if err := os.WriteFile(specPath, out, 0o644); err != nil {
		t.Fatalf("writing spec: %v", err)
	}
	flagRun, err := exec.Command(visim, "-grid", "2x1", "-targets", "1", "-vrounds", "4").Output()
	if err != nil {
		t.Fatalf("visim (flags): %v", err)
	}
	specRun, err := exec.Command(visim, "-spec", specPath).Output()
	if err != nil {
		t.Fatalf("visim -spec: %v", err)
	}
	if !bytes.Equal(flagRun, specRun) {
		t.Fatalf("-spec output differs from the flag run:\n--- flags:\n%s\n--- spec:\n%s", flagRun, specRun)
	}
	if err := exec.Command(visim, "-spec", specPath, "-grid", "3x3").Run(); err == nil {
		t.Fatal("visim accepted -grid together with -spec")
	}
}
