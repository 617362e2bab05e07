// Package service is the visimd HTTP daemon: a multi-tenant simulation
// service where every world is created from one versioned internal/spec
// document and driven over a small REST surface. Each simulation runs an
// isolated engine/deployment/monitor stack on its own goroutine;
// determinism is preserved per tenant — the same spec driven over HTTP is
// byte-identical to the same spec run under visim -spec, including faults
// injected mid-run.
//
// Endpoints:
//
//	POST   /v1/sims                    create a named sim from {"name", "spec"}
//	GET    /v1/sims                    list sims (status documents)
//	GET    /v1/sims/{name}             one sim's status
//	DELETE /v1/sims/{name}             stop and remove a sim (and its state files)
//	POST   /v1/sims/{name}/step        {"vrounds": n} step synchronously
//	POST   /v1/sims/{name}/run         {"target_vround": n} run in background (0 = horizon)
//	POST   /v1/sims/{name}/pause       cancel a background run
//	POST   /v1/sims/{name}/faults      inject an engine fault (spec fault object)
//	GET    /v1/sims/{name}/availability  per-virtual-node availability reports
//	GET    /v1/sims/{name}/events?from=N event log as NDJSON
//	GET    /v1/sims/{name}/spec        effective spec (reproduces the run)
//	GET    /v1/sims/{name}/checkpoint  binary checkpoint of the current state
//	POST   /v1/sims/{name}/checkpoint  persist a checkpoint to the state dir
//	GET    /metrics                    Prometheus text-format metrics
//	GET    /healthz                    liveness
//
// With a state directory configured, create and fault-inject persist each
// sim's effective spec, and POST checkpoint persists its state; a daemon
// restarted on the same directory rebuilds every tenant from its spec and
// resumes it from its latest checkpoint. A tenant whose persisted spec or
// checkpoint is damaged is quarantined (files renamed to *.damaged, the
// sim absent) and the others boot without it.
//
// A panic inside one simulation's world (an engine contract violation, a
// bug in a node, a program or a fault) fails that simulation and nothing
// else: its event log records the panic and stack, its status document
// carries "failed", step, run, pause, faults and checkpoint answer 500
// naming the panic, and every other simulation and /metrics keep serving.
package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"vinfra/internal/checkpoint"
	"vinfra/internal/spec"
	"vinfra/internal/vi"
)

// maxBodyBytes bounds request bodies (specs are small documents).
const maxBodyBytes = 1 << 20

// nameRE is the tenant-name grammar: filesystem- and label-safe.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// Options configures a Service.
type Options struct {
	// StateDir, when set, holds each sim's effective spec (written on
	// create and after every fault injection) and checkpoints (written on
	// POST checkpoint); New recovers every sim found there.
	StateDir string
}

// Service is the visimd HTTP handler: the tenant registry plus its routes.
type Service struct {
	opts Options
	mux  *http.ServeMux

	mu   sync.Mutex
	sims map[string]*tenant

	quarantined []string // written by New only
}

// New builds a service and, when a state directory is configured, recovers
// every simulation persisted there; Quarantined names the ones it could not.
func New(opts Options) (*Service, error) {
	s := &Service{opts: opts, mux: http.NewServeMux(), sims: map[string]*tenant{}}
	s.routes()
	if opts.StateDir != "" {
		if err := os.MkdirAll(opts.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Service) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops every tenant's loop. State files are left in place, so a new
// service on the same directory resumes from the last persisted
// checkpoints.
func (s *Service) Close() {
	for _, t := range s.tenants() {
		t.stop()
	}
}

func (s *Service) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/sims", s.handleCreate)
	s.mux.HandleFunc("GET /v1/sims", s.handleList)
	s.mux.HandleFunc("GET /v1/sims/{name}", s.withTenant(s.handleStatus))
	s.mux.HandleFunc("DELETE /v1/sims/{name}", s.withTenant(s.handleDelete))
	s.mux.HandleFunc("POST /v1/sims/{name}/step", s.withTenant(s.handleStep))
	s.mux.HandleFunc("POST /v1/sims/{name}/run", s.withTenant(s.handleRun))
	s.mux.HandleFunc("POST /v1/sims/{name}/pause", s.withTenant(s.handlePause))
	s.mux.HandleFunc("POST /v1/sims/{name}/faults", s.withTenant(s.handleInjectFault))
	s.mux.HandleFunc("GET /v1/sims/{name}/availability", s.withTenant(s.handleAvailability))
	s.mux.HandleFunc("GET /v1/sims/{name}/events", s.withTenant(s.handleEvents))
	s.mux.HandleFunc("GET /v1/sims/{name}/spec", s.withTenant(s.handleSpec))
	s.mux.HandleFunc("GET /v1/sims/{name}/checkpoint", s.withTenant(s.handleGetCheckpoint))
	s.mux.HandleFunc("POST /v1/sims/{name}/checkpoint", s.withTenant(s.handlePostCheckpoint))
}

// tenants snapshots the registry sorted by name (the emission order of
// every listing, so output never depends on map iteration).
func (s *Service) tenants() []*tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.sims))
	for name := range s.sims {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*tenant, len(names))
	for i, name := range names {
		out[i] = s.sims[name]
	}
	return out
}

func (s *Service) lookup(name string) *tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sims[name]
}

// withTenant resolves {name} and 404s unknown sims.
func (s *Service) withTenant(fn func(http.ResponseWriter, *http.Request, *tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		t := s.lookup(name)
		if t == nil {
			writeError(w, http.StatusNotFound, fmt.Sprintf("no simulation %q", name))
			return
		}
		fn(w, r, t)
	}
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// readBody reads a request body, refusing one over maxBodyBytes.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		code := http.StatusBadRequest
		if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Sprintf("reading body: %v", err))
		return nil, false
	}
	return b, true
}

// writeTenantError answers a failed tenant command: 410 once the sim is
// deleted, 500 once it has panicked, 400 for a request it refused.
func writeTenantError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, errDeleted):
		code = http.StatusGone
	case errors.Is(err, errFailed):
		code = http.StatusInternalServerError
	}
	writeError(w, code, err.Error())
}

// createRequest is the POST /v1/sims document: a name plus a raw spec,
// which is strictly parsed by internal/spec (unknown fields rejected).
type createRequest struct {
	Name string          `json:"name"`
	Spec json.RawMessage `json:"spec"`
}

func (s *Service) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req createRequest
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
		return
	}
	if !nameRE.MatchString(req.Name) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad name %q (want %s)", req.Name, nameRE))
		return
	}
	if len(req.Spec) == 0 {
		writeError(w, http.StatusBadRequest, "missing spec")
		return
	}
	sp, err := spec.Parse(req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	world, err := spec.Build(sp)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	s.mu.Lock()
	if _, exists := s.sims[req.Name]; exists {
		s.mu.Unlock()
		world.Eng.Close()
		writeError(w, http.StatusConflict, fmt.Sprintf("simulation %q already exists", req.Name))
		return
	}
	t := newTenant(req.Name, world)
	s.sims[req.Name] = t
	s.mu.Unlock()

	t.event(0, "created", "")
	if err := s.persistSpec(t); err != nil {
		// The sim is resident but won't survive a restart; surface that.
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("persisting spec: %v", err))
		return
	}
	writeJSON(w, http.StatusCreated, t.status())
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	out := []SimStatus{}
	for _, t := range s.tenants() {
		out = append(out, t.status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request, t *tenant) {
	writeJSON(w, http.StatusOK, t.status())
}

func (s *Service) handleDelete(w http.ResponseWriter, r *http.Request, t *tenant) {
	s.mu.Lock()
	delete(s.sims, t.name)
	s.mu.Unlock()
	t.stop()
	if s.opts.StateDir != "" {
		os.Remove(s.specPath(t.name))
		os.Remove(s.ckptPath(t.name))
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": t.name})
}

func (s *Service) handleStep(w http.ResponseWriter, r *http.Request, t *tenant) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req := struct {
		VRounds int `json:"vrounds"`
	}{VRounds: 1}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
			return
		}
	}
	if _, err := t.step(req.VRounds); err != nil {
		writeTenantError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, t.status())
}

func (s *Service) handleRun(w http.ResponseWriter, r *http.Request, t *tenant) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req struct {
		TargetVRound int `json:"target_vround"`
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding request: %v", err))
			return
		}
	}
	if err := t.run(req.TargetVRound); err != nil {
		writeTenantError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, t.status())
}

func (s *Service) handlePause(w http.ResponseWriter, r *http.Request, t *tenant) {
	if err := t.pause(); err != nil {
		writeTenantError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, t.status())
}

func (s *Service) handleInjectFault(w http.ResponseWriter, r *http.Request, t *tenant) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var f spec.Fault
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decoding fault: %v", err))
		return
	}
	err := t.do(func(world *spec.World) error {
		if err := world.InjectFault(f); err != nil {
			return err
		}
		t.mu.Lock()
		t.syncLocked(world)
		t.eventLocked(world.VRound(), "fault_injected", f.Kind)
		t.mu.Unlock()
		return nil
	})
	if err != nil {
		writeTenantError(w, err)
		return
	}
	if err := s.persistSpec(t); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("persisting spec: %v", err))
		return
	}
	writeJSON(w, http.StatusOK, t.status())
}

// availabilityRow is one virtual node's availability report.
type availabilityRow struct {
	VNode int `json:"vnode"`
	vi.AvailabilityReport
}

func (s *Service) handleAvailability(w http.ResponseWriter, r *http.Request, t *tenant) {
	t.mu.Lock()
	vr := t.vr
	t.mu.Unlock()
	rows := make([]availabilityRow, len(t.locs))
	for v := range t.locs {
		rows[v] = availabilityRow{VNode: v, AvailabilityReport: t.mon.ReportThrough(vi.VNodeID(v), vr)}
	}
	writeJSON(w, http.StatusOK, struct {
		VRound int               `json:"vround"`
		VNodes []availabilityRow `json:"vnodes"`
	}{vr, rows})
}

func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request, t *tenant) {
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad from %q", q))
			return
		}
		from = v
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, e := range t.eventsFrom(from) {
		enc.Encode(e)
	}
}

func (s *Service) handleSpec(w http.ResponseWriter, r *http.Request, t *tenant) {
	t.mu.Lock()
	doc := t.effSpec.JSON()
	t.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

func (s *Service) handleGetCheckpoint(w http.ResponseWriter, r *http.Request, t *tenant) {
	var raw []byte
	err := t.do(func(world *spec.World) error {
		raw = world.Checkpoint().Encode()
		return nil
	})
	if err != nil {
		writeTenantError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(raw)
}

func (s *Service) handlePostCheckpoint(w http.ResponseWriter, r *http.Request, t *tenant) {
	if s.opts.StateDir == "" {
		writeError(w, http.StatusConflict, "no state directory configured (start visimd with -state)")
		return
	}
	var cp checkpoint.Checkpoint
	var vr int
	err := t.do(func(world *spec.World) error {
		cp = world.Checkpoint()
		vr = world.VRound()
		return nil
	})
	if err != nil {
		writeTenantError(w, err)
		return
	}
	if err := cp.WriteFile(s.ckptPath(t.name)); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	t.event(vr, "checkpointed", "")
	writeJSON(w, http.StatusOK, map[string]any{"checkpointed": t.name, "vround": vr})
}

func (s *Service) specPath(name string) string {
	return filepath.Join(s.opts.StateDir, name+".spec.json")
}

func (s *Service) ckptPath(name string) string {
	return filepath.Join(s.opts.StateDir, name+".ckpt")
}

// persistSpec atomically writes the tenant's effective spec to the state
// dir (a no-op without one). The effective spec includes injected faults,
// so recovery rebuilds a world whose fault registration order — and thus
// checkpoint digest — matches the persisted checkpoints.
func (s *Service) persistSpec(t *tenant) error {
	if s.opts.StateDir == "" {
		return nil
	}
	t.mu.Lock()
	doc := t.effSpec.JSON()
	t.mu.Unlock()
	path := s.specPath(t.name)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, doc, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// recover rebuilds every simulation persisted in the state directory: the
// world is rebuilt from the effective spec and, when a checkpoint exists,
// restored from it. Recovered sims start paused at their checkpointed
// virtual round. A tenant whose files do not recover is quarantined and
// the rest still boot; only an unreadable state directory — a deployment
// setting, not a tenant's damage — is an error.
func (s *Service) recover() error {
	entries, err := os.ReadDir(s.opts.StateDir)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	for _, e := range entries {
		name, found := strings.CutSuffix(e.Name(), ".spec.json")
		if !found || !nameRE.MatchString(name) {
			continue
		}
		world, err := s.recoverWorld(name)
		if err != nil {
			s.quarantine(name, err)
			continue
		}
		t := newTenant(name, world)
		t.event(world.VRound(), "restored", "")
		s.sims[name] = t
	}
	return nil
}

// recoverWorld rebuilds one persisted simulation. A checkpoint that does
// not decode or restore fails the whole tenant: restarting it from the
// spec alone would silently put it back at virtual round 0.
func (s *Service) recoverWorld(name string) (*spec.World, error) {
	b, err := os.ReadFile(s.specPath(name))
	if err != nil {
		return nil, err
	}
	sp, err := spec.Parse(b)
	if err != nil {
		return nil, err
	}
	world, err := spec.Build(sp)
	if err != nil {
		return nil, err
	}
	cp, err := checkpoint.ReadFile(s.ckptPath(name))
	if errors.Is(err, os.ErrNotExist) {
		return world, nil // never checkpointed
	}
	if err == nil {
		err = world.Restore(cp)
	}
	if err != nil {
		world.Eng.Close()
		return nil, err
	}
	return world, nil
}

// quarantine takes an unrecoverable tenant offline: its state files are
// renamed to *.damaged — bytes kept for inspection, the name free for
// reuse, the next boot not tripping over them again — and the cause is
// recorded for Quarantined.
func (s *Service) quarantine(name string, cause error) {
	for _, path := range []string{s.specPath(name), s.ckptPath(name)} {
		if err := os.Rename(path, path+".damaged"); err != nil && !errors.Is(err, os.ErrNotExist) {
			cause = fmt.Errorf("%w (and %v)", cause, err)
		}
	}
	s.quarantined = append(s.quarantined, fmt.Sprintf("%s: %v", name, cause))
}

// Quarantined lists, as "name: cause" in name order, the persisted
// simulations New found damaged and set aside instead of recovering.
func (s *Service) Quarantined() []string { return s.quarantined }
