package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"vinfra/internal/cha"
	"vinfra/internal/checkpoint"
	"vinfra/internal/geo"
	"vinfra/internal/sim"
	"vinfra/internal/spec"
	"vinfra/internal/wire"
)

// smallDoc is the shared world: a 2x1 counter grid with pingers, fast
// enough to step under -race.
const smallDoc = `{"version": "vinfra-spec/v1", "seed": 9, "vrounds": 8,
	"grid": {"cols": 2, "rows": 1}, "devices": {"pingers": true}}`

func newService(t *testing.T, dir string) *Service {
	t.Helper()
	svc, err := New(Options{StateDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(svc.Close)
	return svc
}

// call drives one request through the handler and returns the recorder.
func call(t *testing.T, svc *Service, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	svc.ServeHTTP(rec, req)
	return rec
}

func callJSON(t *testing.T, svc *Service, method, path, body string, wantCode int, out any) {
	t.Helper()
	rec := call(t, svc, method, path, body)
	if rec.Code != wantCode {
		t.Fatalf("%s %s: status %d (want %d): %s", method, path, rec.Code, wantCode, rec.Body)
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding response: %v\n%s", method, path, err, rec.Body)
		}
	}
}

func create(t *testing.T, svc *Service, name, doc string) SimStatus {
	t.Helper()
	var st SimStatus
	callJSON(t, svc, "POST", "/v1/sims",
		fmt.Sprintf(`{"name": %q, "spec": %s}`, name, doc), http.StatusCreated, &st)
	return st
}

func TestCreateAndStatus(t *testing.T) {
	svc := newService(t, "")
	st := create(t, svc, "alpha", smallDoc)
	if st.Name != "alpha" || st.VRound != 0 || st.VRounds != 8 || st.VNodes != 2 {
		t.Fatalf("create status %+v", st)
	}
	var got SimStatus
	callJSON(t, svc, "GET", "/v1/sims/alpha", "", http.StatusOK, &got)
	if got != st {
		t.Fatalf("GET status %+v != create status %+v", got, st)
	}
	var list []SimStatus
	callJSON(t, svc, "GET", "/v1/sims", "", http.StatusOK, &list)
	if len(list) != 1 || list[0].Name != "alpha" {
		t.Fatalf("list %+v", list)
	}
	if rec := call(t, svc, "GET", "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
}

func TestCreateRejects(t *testing.T) {
	svc := newService(t, "")
	cases := []struct {
		name string
		body string
		code int
	}{
		{"bad name", `{"name": "../etc", "spec": ` + smallDoc + `}`, http.StatusBadRequest},
		{"missing spec", `{"name": "x"}`, http.StatusBadRequest},
		{"unknown request field", `{"name": "x", "spec": ` + smallDoc + `, "sepc": 1}`, http.StatusBadRequest},
		{"unknown spec field", `{"name": "x", "spec": {"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "gird": 1}}`, http.StatusBadRequest},
		{"wrong version", `{"name": "x", "spec": {"version": "vinfra-spec/v9", "grid": {"cols": 2, "rows": 1}}}`, http.StatusBadRequest},
		{"bad fault", `{"name": "x", "spec": {"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "faults": [{"kind": "sharknado"}]}}`, http.StatusBadRequest},
		// Refused by spec.Validate before Build constructs 10^9 mediums; the
		// creates below show the daemon still serving afterwards.
		{"oversized engine", `{"name": "x", "spec": {"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "engine": {"shards": 1000000000}}}`, http.StatusBadRequest},
		{"not json", `hello`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if rec := call(t, svc, "POST", "/v1/sims", tc.body); rec.Code != tc.code {
				t.Fatalf("status %d (want %d): %s", rec.Code, tc.code, rec.Body)
			}
		})
	}
	create(t, svc, "dup", smallDoc)
	if rec := call(t, svc, "POST", "/v1/sims", `{"name": "dup", "spec": `+smallDoc+`}`); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate create: %d", rec.Code)
	}
	if rec := call(t, svc, "GET", "/v1/sims/ghost", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown sim: %d", rec.Code)
	}
}

func TestStepAvailabilityEventsSpec(t *testing.T) {
	svc := newService(t, "")
	create(t, svc, "alpha", smallDoc)
	var st SimStatus
	callJSON(t, svc, "POST", "/v1/sims/alpha/step", `{"vrounds": 3}`, http.StatusOK, &st)
	if st.VRound != 3 {
		t.Fatalf("after step: vround %d, want 3", st.VRound)
	}
	if st.MeanAvailability != 1 {
		t.Fatalf("fault-free availability %.3f, want 1.0", st.MeanAvailability)
	}
	// Default step is one vround.
	callJSON(t, svc, "POST", "/v1/sims/alpha/step", "", http.StatusOK, &st)
	if st.VRound != 4 {
		t.Fatalf("default step: vround %d, want 4", st.VRound)
	}
	if rec := call(t, svc, "POST", "/v1/sims/alpha/step", `{"vrounds": 0}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("zero step accepted: %d", rec.Code)
	}

	var avail struct {
		VRound int `json:"vround"`
		VNodes []struct {
			VNode        int     `json:"vnode"`
			Instances    int     `json:"Instances"`
			Availability float64 `json:"Availability"`
		} `json:"vnodes"`
	}
	callJSON(t, svc, "GET", "/v1/sims/alpha/availability", "", http.StatusOK, &avail)
	if avail.VRound != 4 || len(avail.VNodes) != 2 {
		t.Fatalf("availability %+v", avail)
	}
	for _, v := range avail.VNodes {
		if v.Availability != 1 {
			t.Fatalf("vnode %d availability %.3f, want 1.0", v.VNode, v.Availability)
		}
	}

	rec := call(t, svc, "GET", "/v1/sims/alpha/events", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("events: %d", rec.Code)
	}
	evs := rec.Body.String()
	if !strings.Contains(evs, `"created"`) || !strings.Contains(evs, `"stepped"`) {
		t.Fatalf("events missing created/stepped:\n%s", evs)
	}
	rec = call(t, svc, "GET", "/v1/sims/alpha/events?from=99", "")
	if strings.TrimSpace(rec.Body.String()) != "" {
		t.Fatalf("events from=99 should be empty, got:\n%s", rec.Body)
	}

	rec = call(t, svc, "GET", "/v1/sims/alpha/spec", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("spec: %d", rec.Code)
	}
	if _, err := spec.Parse(rec.Body.Bytes()); err != nil {
		t.Fatalf("effective spec does not re-parse: %v\n%s", err, rec.Body)
	}
}

func TestRunAndPause(t *testing.T) {
	svc := newService(t, "")
	create(t, svc, "alpha", smallDoc)
	var st SimStatus
	callJSON(t, svc, "POST", "/v1/sims/alpha/run", "", http.StatusAccepted, &st)
	deadline := time.Now().Add(10 * time.Second)
	for {
		callJSON(t, svc, "GET", "/v1/sims/alpha", "", http.StatusOK, &st)
		if st.VRound == 8 && !st.Running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background run never finished: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	rec := call(t, svc, "GET", "/v1/sims/alpha/events", "")
	if !strings.Contains(rec.Body.String(), `"run_done"`) {
		t.Fatalf("no run_done event:\n%s", rec.Body)
	}
	if rec := call(t, svc, "POST", "/v1/sims/alpha/run", `{"target_vround": 3}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("backwards run target accepted: %d", rec.Code)
	}

	create(t, svc, "beta", smallDoc)
	callJSON(t, svc, "POST", "/v1/sims/beta/run", `{"target_vround": 8}`, http.StatusAccepted, nil)
	callJSON(t, svc, "POST", "/v1/sims/beta/pause", "", http.StatusOK, &st)
	if st.Running {
		t.Fatalf("paused sim still running: %+v", st)
	}
}

func TestFaultInjection(t *testing.T) {
	svc := newService(t, "")
	create(t, svc, "alpha", smallDoc)
	var st SimStatus
	callJSON(t, svc, "POST", "/v1/sims/alpha/faults",
		`{"kind": "crash_burst", "from": 150, "until": 250, "period": 30, "p": 0.5}`, http.StatusOK, &st)
	if st.Faults != 1 {
		t.Fatalf("faults %d, want 1", st.Faults)
	}
	rec := call(t, svc, "GET", "/v1/sims/alpha/spec", "")
	if !strings.Contains(rec.Body.String(), `"crash_burst"`) {
		t.Fatalf("injected fault missing from effective spec:\n%s", rec.Body)
	}
	if rec := call(t, svc, "POST", "/v1/sims/alpha/faults", `{"kind": "cell_jammer", "cells": 2}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("jammer injection accepted: %d", rec.Code)
	}
	if rec := call(t, svc, "POST", "/v1/sims/alpha/faults", `{"kind": "sharknado"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown fault kind accepted: %d", rec.Code)
	}
	if rec := call(t, svc, "POST", "/v1/sims/alpha/faults", `{"kind": "crash_burst", "p": 0.5, "cells": 1}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("field misuse accepted: %d", rec.Code)
	}
}

func TestCheckpointEndpoints(t *testing.T) {
	stateless := newService(t, "")
	create(t, stateless, "alpha", smallDoc)
	if rec := call(t, stateless, "POST", "/v1/sims/alpha/checkpoint", ""); rec.Code != http.StatusConflict {
		t.Fatalf("stateless POST checkpoint: %d", rec.Code)
	}

	dir := t.TempDir()
	svc := newService(t, dir)
	create(t, svc, "alpha", smallDoc)
	callJSON(t, svc, "POST", "/v1/sims/alpha/step", `{"vrounds": 2}`, http.StatusOK, nil)
	rec := call(t, svc, "GET", "/v1/sims/alpha/checkpoint", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET checkpoint: %d", rec.Code)
	}
	if _, err := checkpoint.Decode(rec.Body.Bytes()); err != nil {
		t.Fatalf("served checkpoint does not decode: %v", err)
	}
	callJSON(t, svc, "POST", "/v1/sims/alpha/checkpoint", "", http.StatusOK, nil)
	if _, err := checkpoint.ReadFile(svc.ckptPath("alpha")); err != nil {
		t.Fatalf("persisted checkpoint unreadable: %v", err)
	}
}

func TestDelete(t *testing.T) {
	dir := t.TempDir()
	svc := newService(t, dir)
	create(t, svc, "alpha", smallDoc)
	callJSON(t, svc, "POST", "/v1/sims/alpha/checkpoint", "", http.StatusOK, nil)
	callJSON(t, svc, "DELETE", "/v1/sims/alpha", "", http.StatusOK, nil)
	if rec := call(t, svc, "GET", "/v1/sims/alpha", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("status after delete: %d", rec.Code)
	}
	if rec := call(t, svc, "POST", "/v1/sims/alpha/step", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("step after delete: %d", rec.Code)
	}
	if _, err := os.Stat(svc.specPath("alpha")); !os.IsNotExist(err) {
		t.Fatalf("spec file survived delete: %v", err)
	}
	if _, err := os.Stat(svc.ckptPath("alpha")); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file survived delete: %v", err)
	}
}

// TestFailedSpecWriteLeavesNoTemp: a create whose spec file cannot be
// written — its path is a directory, so the rename fails — answers 500 and
// leaves no temp file in the state directory.
func TestFailedSpecWriteLeavesNoTemp(t *testing.T) {
	svc := newService(t, t.TempDir())
	if err := os.Mkdir(svc.specPath("alpha"), 0o755); err != nil {
		t.Fatal(err)
	}
	body := fmt.Sprintf(`{"name": "alpha", "spec": %s}`, smallDoc)
	if rec := call(t, svc, "POST", "/v1/sims", body); rec.Code != http.StatusInternalServerError {
		t.Fatalf("create over a directory: status %d (want 500): %s", rec.Code, rec.Body)
	}
	if _, err := os.Stat(svc.specPath("alpha") + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("the failed spec write left its temp file behind: %v", err)
	}
}

// TestRestartResumesTenants is the daemon crash-restart contract at the
// service layer: a fresh Service over the same state directory rebuilds
// every tenant from its persisted effective spec (including an injected
// fault) and resumes it from its last checkpoint, and the resumed run is
// byte-identical to a straight library run of the same effective spec.
func TestRestartResumesTenants(t *testing.T) {
	dir := t.TempDir()
	svc := newService(t, dir)
	create(t, svc, "alpha", smallDoc)
	callJSON(t, svc, "POST", "/v1/sims/alpha/step", `{"vrounds": 3}`, http.StatusOK, nil)
	callJSON(t, svc, "POST", "/v1/sims/alpha/faults",
		`{"kind": "crash_burst", "from": 300, "until": 350, "period": 30, "p": 0.5}`, http.StatusOK, nil)
	callJSON(t, svc, "POST", "/v1/sims/alpha/checkpoint", "", http.StatusOK, nil)
	effective := call(t, svc, "GET", "/v1/sims/alpha/spec", "").Body.Bytes()
	svc.Close() // the "crash": loops stop, state dir survives

	svc2 := newService(t, dir)
	var st SimStatus
	callJSON(t, svc2, "GET", "/v1/sims/alpha", "", http.StatusOK, &st)
	if st.VRound != 3 || st.Faults != 1 {
		t.Fatalf("recovered status %+v, want vround 3 with 1 fault", st)
	}
	callJSON(t, svc2, "POST", "/v1/sims/alpha/step", `{"vrounds": 5}`, http.StatusOK, &st)
	if st.VRound != 8 {
		t.Fatalf("resumed run ended at vround %d, want 8", st.VRound)
	}
	got := call(t, svc2, "GET", "/v1/sims/alpha/checkpoint", "").Body.Bytes()

	// Straight library run of the recovered effective spec.
	sp, err := spec.Parse(effective)
	if err != nil {
		t.Fatalf("effective spec: %v", err)
	}
	w, err := spec.Build(sp)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer w.Eng.Close()
	for w.VRound() < w.VRounds() {
		w.StepVRound()
	}
	if !bytes.Equal(got, w.Checkpoint().Encode()) {
		t.Fatal("restarted HTTP run diverged from the straight library run")
	}
}

// TestDamagedTenantsQuarantined boots on a state directory where one
// tenant's checkpoint is truncated and another's spec is not JSON: both are
// set aside as *.damaged and reported, neither is restarted from whatever
// half of its state still reads, and the healthy tenant resumes as if they
// were not there.
func TestDamagedTenantsQuarantined(t *testing.T) {
	dir := t.TempDir()
	svc := newService(t, dir)
	for _, name := range []string{"badspec", "cutckpt", "good"} {
		create(t, svc, name, smallDoc)
		callJSON(t, svc, "POST", "/v1/sims/"+name+"/step", `{"vrounds": 3}`, http.StatusOK, nil)
		callJSON(t, svc, "POST", "/v1/sims/"+name+"/checkpoint", "", http.StatusOK, nil)
	}
	svc.Close()

	ckpt, err := os.ReadFile(svc.ckptPath("cutckpt"))
	if err != nil {
		t.Fatal(err)
	}
	half := ckpt[:len(ckpt)/2]
	if err := os.WriteFile(svc.ckptPath("cutckpt"), half, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(svc.specPath("badspec"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := newService(t, dir) // fails here when one damaged tenant refuses boot
	q := svc2.Quarantined()
	if len(q) != 2 || !strings.HasPrefix(q[0], "badspec: ") || !strings.HasPrefix(q[1], "cutckpt: ") {
		t.Fatalf("Quarantined() = %q, want badspec and cutckpt with their causes", q)
	}
	var st SimStatus
	callJSON(t, svc2, "GET", "/v1/sims/good", "", http.StatusOK, &st)
	if st.VRound != 3 {
		t.Fatalf("healthy tenant recovered at vround %d, want 3", st.VRound)
	}
	callJSON(t, svc2, "POST", "/v1/sims/good/step", `{"vrounds": 2}`, http.StatusOK, &st)
	if st.VRound != 5 {
		t.Fatalf("healthy tenant stepped to vround %d, want 5", st.VRound)
	}
	for _, name := range []string{"badspec", "cutckpt"} {
		if rec := call(t, svc2, "GET", "/v1/sims/"+name, ""); rec.Code != http.StatusNotFound {
			t.Errorf("quarantined %s: status %d, want 404", name, rec.Code)
		}
		for _, path := range []string{svc.specPath(name), svc.ckptPath(name)} {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("%s still in place after quarantine (err %v)", path, err)
			}
			if _, err := os.Stat(path + ".damaged"); err != nil {
				t.Errorf("quarantined bytes not kept: %v", err)
			}
		}
	}
	if kept, err := os.ReadFile(svc.ckptPath("cutckpt") + ".damaged"); err != nil || !bytes.Equal(kept, half) {
		t.Errorf("cutckpt.ckpt.damaged: %d bytes, err %v; want the %d truncated bytes untouched", len(kept), err, len(half))
	}
	svc2.Close()

	// The next boot does not trip over the same files again, and a
	// quarantined name is free for reuse.
	svc3 := newService(t, dir)
	if q := svc3.Quarantined(); len(q) != 0 {
		t.Fatalf("second boot quarantined again: %q", q)
	}
	callJSON(t, svc3, "GET", "/v1/sims/good", "", http.StatusOK, nil)
	if st := create(t, svc3, "cutckpt", smallDoc); st.VRound != 0 {
		t.Fatalf("reused name came up at vround %d, want a fresh sim", st.VRound)
	}
}

// TestHostileCoreQuarantined boots on a state directory where one tenant's
// checkpoint is well-formed down to its digest but carries, in one
// replica's agreement core, a current instance of 2^40: the core is a
// window indexed by instance, so this is not a number to restore and find
// out. The tenant is quarantined with the core named as the cause, and the
// healthy tenant steps on.
func TestHostileCoreQuarantined(t *testing.T) {
	checkReplicaQuarantined(t, smallDoc, "bigk", "cha: restore", func(blob []byte) []byte {
		d := wire.Dec(blob)
		d.Varint()
		d.Bool()
		d.Bytes()
		head := blob[:len(blob)-d.Rem()]
		core, err := cha.DecodeCoreSnapshot(&d)
		if err != nil {
			t.Fatalf("replica blob carries no core: %v", err)
		}
		core.K = 1 << 40
		return append(core.AppendTo(bytes.Clone(head)), blob[len(blob)-d.Rem():]...)
	})
}

// TestNegativeVNodeQuarantined: a replica blob rewritten to serve vnode -2
// names no region of the deployment. Restoring it used to index the
// deployment at -2 and panic the daemon at boot; now the tenant is
// quarantined like any other damaged checkpoint, and the healthy tenant
// steps on.
func TestNegativeVNodeQuarantined(t *testing.T) {
	checkReplicaQuarantined(t, smallDoc, "negvn", "vnode -2", func(blob []byte) []byte {
		d := wire.Dec(blob)
		d.Varint()
		return append(wire.AppendVarint(nil, -2), blob[len(blob)-d.Rem():]...)
	})
}

// TestPreChangeBackoffQuarantined: a regional tenant's checkpoint whose
// replica carries a backoff blob in the shape written when the deferral was
// a radio round (window 1, deferred until round 5000) is refused on boot,
// not read as a 5000-ballot deferral: the tenant is quarantined with the
// contention manager named, and the healthy tenant steps on.
func TestPreChangeBackoffQuarantined(t *testing.T) {
	regional := strings.Replace(smallDoc, `"devices"`, `"leader": "regional", "devices"`, 1)
	checkReplicaQuarantined(t, regional, "oldcm", "contention manager", func(blob []byte) []byte {
		d := wire.Dec(blob)
		d.Varint()
		d.Bool()
		head := blob[:len(blob)-d.Rem()]
		d.Bytes()
		old := wire.AppendUvarint(wire.AppendUvarint(nil, 1), 5000)
		return append(wire.AppendBytes(bytes.Clone(head), old), blob[len(blob)-d.Rem():]...)
	})
}

// checkReplicaQuarantined checkpoints tenants bad and "good" of world doc at
// virtual round 3, rewrites in bad's checkpoint the state blob of node 0 — a
// bootstrapped replica of vnode 0, since spec.Build attaches the replicas
// first — with edit, and reboots: bad must be quarantined with cause in its
// reason, its files kept as *.damaged, and good must step on.
func checkReplicaQuarantined(t *testing.T, doc, bad, cause string, edit func(blob []byte) []byte) {
	t.Helper()
	dir := t.TempDir()
	svc := newService(t, dir)
	for _, name := range []string{bad, "good"} {
		create(t, svc, name, doc)
		callJSON(t, svc, "POST", "/v1/sims/"+name+"/step", `{"vrounds": 3}`, http.StatusOK, nil)
		callJSON(t, svc, "POST", "/v1/sims/"+name+"/checkpoint", "", http.StatusOK, nil)
	}
	svc.Close()

	cp, err := checkpoint.ReadFile(svc.ckptPath(bad))
	if err != nil {
		t.Fatal(err)
	}
	replica := &cp.Engine.Nodes[0]
	d := wire.Dec(replica.State)
	if vn, joined := d.Varint(), d.Bool(); d.Err() != nil || vn != 0 || !joined {
		t.Fatalf("node 0 is not a joined replica of vnode 0 (vnode %d, joined %v, err %v)", vn, joined, d.Err())
	}
	replica.State = edit(replica.State)
	if err := cp.WriteFile(svc.ckptPath(bad)); err != nil {
		t.Fatal(err)
	}

	svc2 := newService(t, dir)
	q := svc2.Quarantined()
	if len(q) != 1 || !strings.HasPrefix(q[0], bad+": ") || !strings.Contains(q[0], cause) {
		t.Fatalf("Quarantined() = %q, want %s refused with %q", q, bad, cause)
	}
	for _, path := range []string{svc.specPath(bad), svc.ckptPath(bad)} {
		if _, err := os.Stat(path + ".damaged"); err != nil {
			t.Errorf("quarantined bytes not kept: %v", err)
		}
	}
	if rec := call(t, svc2, "GET", "/v1/sims/"+bad, ""); rec.Code != http.StatusNotFound {
		t.Errorf("quarantined tenant: status %d, want 404", rec.Code)
	}
	var st SimStatus
	callJSON(t, svc2, "POST", "/v1/sims/good/step", `{"vrounds": 2}`, http.StatusOK, &st)
	if st.VRound != 5 {
		t.Fatalf("healthy tenant stepped to vround %d, want 5", st.VRound)
	}
}

// TestConcurrentTenants runs two identical tenants from goroutines while
// scraping metrics and availability — the isolation + race-cleanliness
// pin. Both tenants must finish byte-identical to each other.
func TestConcurrentTenants(t *testing.T) {
	svc := newService(t, "")
	create(t, svc, "a", smallDoc)
	create(t, svc, "b", smallDoc)

	done := make(chan error, 2)
	for _, name := range []string{"a", "b"} {
		name := name
		go func() {
			for i := 0; i < 8; i++ {
				rec := call(t, svc, "POST", "/v1/sims/"+name+"/step", `{"vrounds": 1}`)
				if rec.Code != http.StatusOK {
					done <- fmt.Errorf("%s step: %d %s", name, rec.Code, rec.Body)
					return
				}
			}
			done <- nil
		}()
	}
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for i := 0; i < 20; i++ {
			call(t, svc, "GET", "/metrics", "")
			call(t, svc, "GET", "/v1/sims/a/availability", "")
			call(t, svc, "GET", "/v1/sims", "")
		}
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	<-scrapeDone

	ca := call(t, svc, "GET", "/v1/sims/a/checkpoint", "").Body.Bytes()
	cb := call(t, svc, "GET", "/v1/sims/b/checkpoint", "").Body.Bytes()
	if len(ca) == 0 || !bytes.Equal(ca, cb) {
		t.Fatal("concurrent tenants with the same spec diverged")
	}

	// /metrics exposes per-vnode availability for both tenants.
	m := call(t, svc, "GET", "/metrics", "").Body.String()
	for _, want := range []string{
		"vinfra_sims 2",
		`vinfra_vnode_availability{sim="a",vnode="0"} 1.0000`,
		`vinfra_vnode_availability{sim="a",vnode="1"} 1.0000`,
		`vinfra_vnode_availability{sim="b",vnode="0"} 1.0000`,
		`vinfra_vnode_availability{sim="b",vnode="1"} 1.0000`,
		`vinfra_sim_vround{sim="a"} 8`,
		`vinfra_sim_vround{sim="b"} 8`,
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("metrics missing %q:\n%s", want, m)
		}
	}
}

// TestHostsExperimentCell is the payoff of the experiments building their
// worlds with spec.Build: the E13 jam/high/3x3 cell is a plain document
// (internal/experiments pins the file to the cell), so POSTing it and
// stepping its horizon over HTTP must report the availability accounting
// the experiment suite's golden file records for that cell.
func TestHostsExperimentCell(t *testing.T) {
	const dir = "../experiments/testdata/"
	doc, err := os.ReadFile(dir + "e13_jam_high_3x3.json")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(dir + "golden_quick_seeds12.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Experiments []struct {
			ID      string   `json:"id"`
			Columns []string `json:"columns"`
			Cells   []struct {
				Cell string  `json:"cell"`
				Seed int64   `json:"seed"`
				Rows [][]any `json:"rows"`
			} `json:"cells"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for _, e := range golden.Experiments {
		for _, c := range e.Cells {
			if e.ID == "E13" && c.Cell == "jam/high/3x3" && c.Seed == 1 {
				for i, col := range e.Columns {
					if v, ok := c.Rows[0][i].(float64); ok {
						want[col] = v
					}
				}
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("golden file has no E13 jam/high/3x3 seed-1 cell")
	}

	svc := newService(t, "")
	st := create(t, svc, "jam", string(doc))
	callJSON(t, svc, "POST", "/v1/sims/jam/step", fmt.Sprintf(`{"vrounds": %d}`, st.VRounds), http.StatusOK, &st)
	var avail struct {
		VNodes []struct {
			Unavailable  int
			MaxStall     int
			Availability float64
		} `json:"vnodes"`
	}
	callJSON(t, svc, "GET", "/v1/sims/jam/availability", "", http.StatusOK, &avail)
	var mean float64
	unavailable, maxStall := 0, 0
	for _, v := range avail.VNodes {
		mean += v.Availability
		unavailable += v.Unavailable
		maxStall = max(maxStall, v.MaxStall)
	}
	mean /= float64(len(avail.VNodes))
	if len(avail.VNodes) != int(want["vnodes"]) || mean != want["availability"] ||
		unavailable != int(want["unavailable"]) || maxStall != int(want["max stall"]) {
		t.Fatalf("over HTTP: %d vnodes, availability %v, %d unavailable, max stall %d; the cell's golden row is %v",
			len(avail.VNodes), mean, unavailable, maxStall, want)
	}
	if st.MeanAvailability != want["availability"] {
		t.Fatalf("status reports availability %v, the cell's row %v", st.MeanAvailability, want["availability"])
	}
}

// bomb is an engine fault that panics at radio round at — what an engine
// contract violation or a bug in a node looks like from the tenant loop.
type bomb struct{ at sim.Round }

func (b bomb) Strike(r sim.Round, _ sim.Control) {
	if r >= b.at {
		panic(fmt.Sprintf("bomb went off in round %d", r))
	}
}

// plant arms a bomb in a tenant's engine, one virtual round ahead.
func plant(t *testing.T, svc *Service, name string) {
	t.Helper()
	err := svc.lookup(name).do(func(w *spec.World) error {
		w.Eng.AddFault(bomb{at: w.Eng.Round() + sim.Round(w.RoundsPerVRound())})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mine is a device whose Receive panics from radio round at on. It never
// sleeps and is attached last, so on a tenant with engine workers it sits in
// the last chunk of the Receive fan-out: the panic is raised on one of the
// engine's helper goroutines, not on the tenant loop's — provided the round
// has a second chunk's worth of awake devices (the engine runs less than
// that inline), which the duds lay attaches in front of it see to.
type mine struct{ at sim.Round }

func (mine) Transmit(sim.Round) sim.Message { return nil }

func (m mine) Receive(r sim.Round, _ sim.Reception) {
	if r >= m.at {
		panic(fmt.Sprintf("mine went off in round %d", r))
	}
}

// lay attaches a mine to a tenant's engine, armed one virtual round ahead,
// behind 600 that never go off: more than two of the engine's 256-node
// grains, so every Receive fans out.
func lay(t *testing.T, svc *Service, name string) {
	t.Helper()
	err := svc.lookup(name).do(func(w *spec.World) error {
		for i := 0; i < 600; i++ {
			w.Eng.Attach(geo.Point{X: 1, Y: 1}, nil, func(sim.Env) sim.Node { return mine{math.MaxInt64} })
		}
		at := w.Eng.Round() + sim.Round(w.RoundsPerVRound())
		w.Eng.Attach(geo.Point{X: 1, Y: 1}, nil, func(sim.Env) sim.Node { return mine{at} })
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPanickingTenantFailsAlone: a panic inside one tenant's world — on the
// tenant loop's goroutine or, with engine workers, on a helper of the
// engine's pool — fails that tenant — recorded, reported, refusing further
// commands — and nothing else: the daemon, the other tenants and /metrics
// keep serving.
func TestPanickingTenantFailsAlone(t *testing.T) {
	svc := newService(t, "")
	for _, name := range []string{"stepped", "running", "healthy"} {
		create(t, svc, name, smallDoc)
	}
	create(t, svc, "fanned", strings.Replace(smallDoc, `"grid"`, `"engine": {"workers": 2}, "grid"`, 1))
	plant(t, svc, "stepped")
	plant(t, svc, "running")
	lay(t, svc, "fanned")
	if rec := call(t, svc, "POST", "/v1/sims/fanned/step", `{"vrounds": 4}`); rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "mine went off") {
		t.Fatalf("step into a panic on a pool helper: %d %s; want 500 naming the panic", rec.Code, rec.Body)
	}

	// One tenant panics under a synchronous step, the other mid background run.
	rec := call(t, svc, "POST", "/v1/sims/stepped/step", `{"vrounds": 4}`)
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "bomb went off") {
		t.Fatalf("step into the panic: %d %s; want 500 naming the panic", rec.Code, rec.Body)
	}
	callJSON(t, svc, "POST", "/v1/sims/running/run", "", http.StatusAccepted, nil)
	var st SimStatus
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		callJSON(t, svc, "GET", "/v1/sims/running", "", http.StatusOK, &st)
		if st.Failed != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the background run never hit the bomb: %+v", st)
		}
	}
	if st.Running || st.VRound != 1 {
		t.Errorf("failed background run reports %+v; want stopped at virtual round 1", st)
	}

	for _, name := range []string{"stepped", "running", "fanned"} {
		// The stack is the recovering goroutine's: it names the bomb's Strike,
		// and for the mine the pool's run, which raised the helper's panic again.
		went, frame := "bomb went off", "service.bomb.Strike"
		if name == "fanned" {
			went, frame = "mine went off", "sim.(*workerPool).run"
		}
		callJSON(t, svc, "GET", "/v1/sims/"+name, "", http.StatusOK, &st)
		if !strings.Contains(st.Failed, went) || st.VRound != 1 {
			t.Errorf("%s: status %+v; want failed at virtual round 1 naming the panic", name, st)
		}
		events := call(t, svc, "GET", "/v1/sims/"+name+"/events", "").Body.String()
		if !strings.Contains(events, `"failed"`) || !strings.Contains(events, went) || !strings.Contains(events, frame) {
			t.Errorf("%s: the event log lacks the panic and its stack:\n%s", name, events)
		}
		for _, req := range [][2]string{
			{"step", `{"vrounds": 1}`}, {"run", ""}, {"pause", ""},
			{"faults", `{"kind": "crash_burst", "period": 30, "p": 0.5}`},
		} {
			rec := call(t, svc, "POST", "/v1/sims/"+name+"/"+req[0], req[1])
			if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), went) {
				t.Errorf("%s: %s on a failed sim: %d %s; want 500 naming the panic", name, req[0], rec.Code, rec.Body)
			}
		}
		if rec := call(t, svc, "GET", "/v1/sims/"+name+"/checkpoint", ""); rec.Code != http.StatusInternalServerError {
			t.Errorf("%s: checkpoint of a torn world: %d, want 500", name, rec.Code)
		}
	}

	var healthy SimStatus
	callJSON(t, svc, "POST", "/v1/sims/healthy/step", `{"vrounds": 8}`, http.StatusOK, &healthy)
	if healthy.VRound != 8 || healthy.Failed != "" {
		t.Errorf("the healthy tenant: %+v; want 8 virtual rounds and no failure", healthy)
	}
	metrics := call(t, svc, "GET", "/metrics", "")
	if metrics.Code != http.StatusOK || !strings.Contains(metrics.Body.String(), `vinfra_sim_vround{sim="healthy"} 8`) {
		t.Errorf("/metrics after the panics: %d\n%s", metrics.Code, metrics.Body)
	}
	callJSON(t, svc, "DELETE", "/v1/sims/stepped", "", http.StatusOK, nil)
}

// TestOversizeBodiesRefused: create and fault bodies are capped.
func TestOversizeBodiesRefused(t *testing.T) {
	svc := newService(t, "")
	create(t, svc, "alpha", smallDoc)
	huge := `{"kind": "` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, path := range []string{"/v1/sims", "/v1/sims/alpha/faults"} {
		if rec := call(t, svc, "POST", path, huge); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: %d, want 413", path, len(huge), rec.Code)
		}
	}
}

// fuzzWorldLimit keeps the handler fuzzers' worlds small: a create the spec
// layer would accept for more devices or regions than this is skipped, not
// built — spec.MaxDevices is a million, and the fuzzers build a world per
// input.
func fuzzWorldTooLarge(body []byte) bool {
	var req createRequest
	if json.Unmarshal(body, &req) != nil {
		return false
	}
	sp, err := spec.Parse(req.Spec)
	return err == nil && (sp.TotalDevices() > 2000 || sp.Grid.Cols*sp.Grid.Rows > 64)
}

// stepAndDelete is what must work on any simulation a fuzzed request left
// behind: one virtual round, then the delete.
func stepAndDelete(t *testing.T, svc *Service, name string) {
	t.Helper()
	if rec := call(t, svc, "POST", "/v1/sims/"+name+"/step", `{"vrounds": 1}`); rec.Code != http.StatusOK {
		t.Fatalf("step after the request: %d %s", rec.Code, rec.Body)
	}
	if rec := call(t, svc, "DELETE", "/v1/sims/"+name, ""); rec.Code != http.StatusOK {
		t.Fatalf("delete after the request: %d %s", rec.Code, rec.Body)
	}
}

// FuzzCreateHandler posts arbitrary bodies to POST /v1/sims: whatever
// arrives, the daemon answers without a 5xx and without panicking, and a
// simulation it did create steps a virtual round and deletes.
func FuzzCreateHandler(f *testing.F) {
	for _, body := range []string{
		`{"name": "a", "spec": ` + smallDoc + `}`,
		`{"name": "dup", "spec": ` + smallDoc + `}`,           // the name the fuzz target has already taken
		`{"name": "a", "spec": ` + smallDoc[:len(smallDoc)/2], // truncated
		`{"name": "a", "spec": {"version": "vinfra-spec/v9", "grid": {"cols": 2, "rows": 1}}}`,
		`{"name": "a", "spec": {"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "engine": {"shards": 1073741824}}}`,
		`{"name": "a", "spec": {"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "engine": {"workers": 3, "shards": 4}, "devices": {"pingers": true, "listeners": 40}, "faults": [{"kind": "churn_storm", "period": 7, "kills": 2}]}}`,
		`{"name": "../etc", "spec": ` + smallDoc + `}`,
		`{"name": "a"}`,
		`{"name": "a", "spec": ` + smallDoc + `, "sepc": 1}`,
		`{"name": "a", "spec": "` + strings.Repeat("x", maxBodyBytes) + `"}`, // oversize
		`hello`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if fuzzWorldTooLarge(body) {
			t.Skip("a world too large to build per input")
		}
		svc := newService(t, "")
		create(t, svc, "dup", smallDoc)
		rec := call(t, svc, "POST", "/v1/sims", string(body))
		if rec.Code >= 500 {
			t.Fatalf("create answered %d: %s", rec.Code, rec.Body)
		}
		if rec.Code/100 == 2 {
			var st SimStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatalf("decoding the created status: %v\n%s", err, rec.Body)
			}
			stepAndDelete(t, svc, st.Name)
		}
		stepAndDelete(t, svc, "dup")
	})
}

// FuzzFaultHandler posts arbitrary bodies to POST /v1/sims/{name}/faults of a
// live simulation: never a 5xx, never a panic, and whatever was injected the
// simulation steps on and deletes.
func FuzzFaultHandler(f *testing.F) {
	for _, body := range []string{
		`{"kind": "crash_burst", "period": 30, "p": 0.5}`,
		`{"kind": "churn_storm", "period": 1, "kills": 3}`,
		`{"kind": "region_wipe", "at": 1, "x": 0, "y": 0, "radius": 100}`,
		`{"kind": "herd", "x": 3, "y": 3, "frac": 1, "step": 1e308}`,
		`{"kind": "region_jammer", "period": 4, "burst": 2}`,
		`{"kind": "cell_jammer", "cells": 1000000}`,
		`{"kind": "sharknado"}`,
		`{"kind": "crash_burst", "period": 30, "p": 0.5, "pp": 1}`,
		`{"kind": "crash_burst", "per`,                          // truncated
		`{"kind": "` + strings.Repeat("x", maxBodyBytes) + `"}`, // oversize
		`hello`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		svc := newService(t, "")
		create(t, svc, "x", smallDoc)
		if rec := call(t, svc, "POST", "/v1/sims/x/faults", string(body)); rec.Code >= 500 {
			t.Fatalf("fault injection answered %d: %s", rec.Code, rec.Body)
		}
		stepAndDelete(t, svc, "x")
	})
}
