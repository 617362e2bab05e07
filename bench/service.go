package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"vinfra/internal/checkpoint"
	"vinfra/internal/service"
	"vinfra/internal/spec"
)

const (
	svcTenants = 8
	svcClients = 2 // each owns svcTenants/svcClients tenants
)

// tenantSpec is one service tenant: a 5x5 grid with a few roaming
// listeners, small enough that HTTP, the tenant loop, spec and checkpoint
// code are a visible share of a step.
func tenantSpec(seed int64, mini bool) spec.Spec {
	listeners := 200
	if mini {
		listeners = 20
	}
	return spec.Spec{
		Version: spec.Version, Seed: seed, VRounds: 1_000_000,
		Grid:    spec.Grid{Cols: 5, Rows: 5},
		Devices: spec.Devices{Replicas: 3, Pingers: true, Listeners: listeners},
	}
}

// daemon is visimd's handler in this process behind a loopback listener.
// No real network is involved: latencies are HTTP framing, the tenant loop
// and engine time.
type daemon struct {
	dir string
	svc *service.Service
	srv *httptest.Server
}

// startDaemon brings the service up on a fresh state directory and creates
// the tenants; when it returns, the first step is possible.
func startDaemon(cfg config, n int) (*daemon, error) {
	dir := filepath.Join(cfg.out, fmt.Sprintf("state-%d-%d", os.Getpid(), n))
	svc, err := service.New(service.Options{StateDir: dir})
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: dir, svc: svc, srv: httptest.NewServer(svc)}
	c := newClient(d.srv.URL, nil)
	defer c.hc.CloseIdleConnections()
	for i := 0; i < svcTenants; i++ {
		body := fmt.Sprintf(`{"name": %q, "spec": %s}`, tenantName(i), tenantSpec(cfg.seed+int64(i), cfg.mini).JSON())
		if _, ok := c.do(-1, "create", "POST", "/v1/sims", body); !ok {
			d.stop()
			return nil, fmt.Errorf("creating tenant %d failed", i)
		}
	}
	return d, nil
}

func (d *daemon) stop() {
	d.srv.Close()
	d.svc.Close()
	os.RemoveAll(d.dir)
}

func tenantName(i int) string { return fmt.Sprintf("t%d", i) }

// client is one closed-loop driver: a keep-alive connection that sends its
// next request only after the previous reply. Every request is an
// operation; a transport error or a non-2xx reply fails it.
type client struct {
	hc   *http.Client
	base string
	tr   *tracer

	attempted, failed int
	lat               map[string][]float64 // milliseconds by request kind
	epoch             time.Time            // steady-phase start
	steps             []op                 // every step request since epoch
	// A traced run records spans on every other cycle only; step latencies
	// of the two halves, kept apart, give the tracing overhead.
	tracing         bool
	stepOn, stepOff []float64
}

func newClient(base string, tr *tracer) *client {
	return &client{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		base: base, tr: tr,
		lat: map[string][]float64{},
	}
}

// do sends one request and returns the reply body and whether it succeeded.
func (c *client) do(parent int32, kind, method, path, body string) ([]byte, bool) {
	c.attempted++
	var sp int32 = -1
	if c.tracing {
		sp = c.tr.begin(parent, kind)
	}
	t := time.Now()
	out, err := c.roundTrip(method, path, body)
	end := time.Now()
	d := ms(end.Sub(t))
	c.tr.end(sp)
	if kind == "step" {
		c.steps = append(c.steps, op{end: ms(end.Sub(c.epoch)), lat: d})
		if c.tracing {
			c.stepOn = append(c.stepOn, d)
		} else if c.tr != nil {
			c.stepOff = append(c.stepOff, d)
		}
	}
	c.lat[kind] = append(c.lat[kind], d)
	if err != nil {
		c.failed++
		return nil, false
	}
	return out, true
}

func (c *client) roundTrip(method, path, body string) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	return out, nil
}

// cycle n (1-based) steps each owned tenant one virtual round, then reads
// once by a fixed schedule: persist a checkpoint every 50th cycle, download
// one every 25th, otherwise scrape /metrics on even cycles and read a
// tenant's availability on odd ones.
func (c *client) cycle(parent int32, n int, owned []int) {
	var sp int32 = -1
	if c.tracing {
		sp = c.tr.begin(parent, "cycle")
	}
	for _, t := range owned {
		c.do(sp, "step", "POST", "/v1/sims/"+tenantName(t)+"/step", `{"vrounds":1}`)
	}
	target := "/v1/sims/" + tenantName(owned[n%len(owned)])
	switch {
	case n%50 == 0:
		c.do(sp, "checkpoint.post", "POST", target+"/checkpoint", "")
	case n%25 == 0:
		c.do(sp, "checkpoint.get", "GET", target+"/checkpoint", "")
	case n%2 == 0:
		c.do(sp, "scrape", "GET", "/metrics", "")
	default:
		c.do(sp, "availability", "GET", target+"/availability", "")
	}
	c.tr.end(sp)
}

// runService drives the service workload. A step is one virtual round of
// one tenant, so vround_ms_p50 is the step request's latency and
// rounds_per_s the radio rounds simulated per second through the API.
func runService(wl *workload, cfg config) *run {
	r := newRun(wl, cfg)
	tr := r.tracer
	root := tr.begin(-1, "run")
	wsp := tr.begin(root, wl.name)
	defer func() { tr.end(wsp); tr.end(root) }()

	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		panic(err)
	}
	ph := tr.begin(wsp, "setup")
	var d *daemon
	var setup []float64
	// Not timeReps: tearing the previous daemon down (its state directory
	// with it) is not set-up time.
	for start := time.Now(); len(setup) < 5 || (time.Since(start) < cfg.repBudget() && len(setup) < 200); {
		if d != nil {
			d.stop()
		}
		b := tr.begin(ph, "service.New+create")
		t := time.Now()
		var err error
		if d, err = startDaemon(cfg, len(setup)); err != nil {
			panic(err)
		}
		setup = append(setup, ms(time.Since(t)))
		tr.end(b)
	}
	tr.end(ph)
	defer d.stop()
	r.setN("setup_s", median(setup)/1e3, len(setup))

	clients := make([]*client, svcClients)
	owned := make([][]int, svcClients)
	for i := range clients {
		clients[i] = newClient(d.srv.URL, tr)
		defer clients[i].hc.CloseIdleConnections()
		for t := i; t < svcTenants; t += svcClients {
			owned[i] = append(owned[i], t)
		}
	}
	// drive runs every client's closed loop concurrently: cycles first+1..
	// until stop says so (asked after each cycle).
	drive := func(ph int32, first int, stop func(done int) bool) []int {
		done := make([]int, svcClients)
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c *client) {
				defer wg.Done()
				lane := tr.begin(ph, "client")
				for n := first + 1; ; n++ {
					c.tracing = tr != nil && n%2 == 0
					c.cycle(lane, n, owned[i])
					done[i]++
					if stop(done[i]) {
						break
					}
				}
				c.tracing = false
				tr.end(lane)
			}(i, c)
		}
		wg.Wait()
		return done
	}

	warm := wl.warmup(cfg.mini)
	ph = tr.begin(wsp, "warmup")
	drive(ph, 0, func(done int) bool { return done >= warm })
	tr.end(ph)

	// Pin point: every tenant has stepped exactly warm virtual rounds.
	ph = tr.begin(wsp, "checkpoint")
	c0 := clients[0]
	pin, pinCP, err := tenantStats(c0, 0, warm)
	if err != nil {
		r.fail("pin point: %v", err)
		return r
	}
	r.pin(wl, cfg, pin)
	per := pin.Rounds / warm
	r.set("checkpoint_kb", float64(len(pinCP.Encode()))/1024)
	r.set("heap_live_mb", liveHeapMB())
	tr.end(ph)

	ph = tr.begin(wsp, "steady")
	rt0 := readRuntime()
	start := time.Now()
	for _, c := range clients { // the steady phase starts with clean samples
		c.lat, c.stepOn, c.stepOff, c.steps, c.epoch = map[string][]float64{}, nil, nil, nil, start
	}
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	done := drive(ph, warm, func(int) bool { return !time.Now().Before(deadline) })
	rt1 := readRuntime()
	tr.end(ph)

	lat := map[string][]float64{}
	var stepOn, stepOff []float64
	var ops []op
	for _, c := range clients {
		for k, v := range c.lat {
			lat[k] = append(lat[k], v...)
		}
		stepOn = append(stepOn, c.stepOn...)
		stepOff = append(stepOff, c.stepOff...)
		ops = append(ops, c.steps...)
	}
	// One completion-ordered stream of both clients' steps: a block's wall
	// time then covers what both did, reads included.
	sort.Slice(ops, func(a, b int) bool { return ops[a].end < ops[b].end })
	steps := len(ops)
	r.setSteady(ops, wl.block, per)

	// Every tenant must be where its owner's requests put it, still fully
	// available, and tenant 0 at the pin point must equal the same spec
	// stepped directly (over HTTP ≡ in process).
	for i := 0; i < svcTenants; i++ {
		st, _, err := tenantStats(c0, i, warm+done[i%svcClients])
		if err == nil {
			err = wl.check(st)
		}
		if err != nil {
			r.fail("end of run: tenant %d: %v", i, err)
		}
	}
	direct, err := specSUT(tenantSpec(cfg.seed, cfg.mini))
	if err != nil {
		panic(err)
	}
	defer direct.close()
	var hook *roundHook
	if tr != nil {
		hook = newRoundHook(tr, direct.world)
	}
	if hook != nil {
		hook.count = true
	}
	for i := 0; i < warm; i++ {
		direct.step()
	}
	if hook != nil {
		hook.count = false
	}
	joins, resets := direct.churn()
	if got := statsOf(direct.checkpoint(), direct.nv, warm, joins, resets); got != pin {
		r.fail("tenant t0 over HTTP differs from the same spec stepped in process: %+v vs %+v", pin, got)
	}

	if tr != nil {
		r.setN("sim.vround_ms_p95", percentile(lat["step"], 0.95), steps)
		r.setN("service.step_ms_p99", percentile(lat["step"], 0.99), steps)
		r.setN("service.scrape_ms_p50", median(lat["scrape"]), len(lat["scrape"]))
		r.setN("service.scrape_ms_p99", percentile(lat["scrape"], 0.99), len(lat["scrape"]))
		r.setN("service.checkpoint_ms_p50", median(lat["checkpoint.get"]), len(lat["checkpoint.get"]))
		if len(stepOn) > 0 && len(stepOff) > 0 {
			r.set("trace.overhead_pct", 100*(median(stepOn)/median(stepOff)-1))
		}
		r.setRuntime(rt0, rt1, steps*per)

		ph = tr.begin(wsp, "replay")
		c0.tracing = true
		floor := timeReps(200, 200, 0, func() { c0.do(ph, "healthz", "GET", "/healthz", "") })
		status := timeReps(200, 200, 0, func() { c0.do(ph, "status", "GET", "/v1/sims/t0", "") })
		scrape, _ := c0.do(ph, "scrape", "GET", "/metrics", "")
		r.set("service.scrape_bytes", float64(len(scrape)))
		events, _ := c0.do(ph, "events", "GET", "/v1/sims/t0/events", "")
		c0.tracing = false
		r.set("service.events_len", float64(bytes.Count(events, []byte("\n"))))
		r.setN("service.http_floor_ms_p50", median(floor), len(floor))
		r.setN("service.status_ms_p50", median(status), len(status))

		// The same tenant stepped in process: what a step costs without
		// HTTP, the tenant loop and status rendering.
		direct1s, _, _ := steady(direct, hook, tr, ph, min(1, cfg.seconds))
		all := latencies(direct1s)
		r.setN("service.direct_vround_ms_p50", median(all), len(all))
		r.set("service.step_overhead_ms", median(lat["step"])-median(all))
		end := direct.checkpoint()
		layerMetrics(r, ph, direct, hook, layerInputs{
			pin: pin, pinCP: pinCP, end: statsOf(end, direct.nv, warm+len(all), joins, resets), endCP: end,
			per: per, vroundMs: median(all), seed: cfg.seed,
		})
		tr.end(ph)
	}

	for _, c := range clients {
		r.Result.Attempted += c.attempted
		r.Result.Failed += c.failed
	}
	if r.Result.Failed > 0 {
		r.fail("%d of %d requests failed", r.Result.Failed, r.Result.Attempted)
	}
	if tr != nil {
		r.set("service.failed_ratio", float64(r.Result.Failed)/float64(r.Result.Attempted))
	}
	return r
}

// tenantStats downloads tenant i's checkpoint and status and derives its
// simulated statistics; the tenant must be at virtual round vr.
func tenantStats(c *client, i, vr int) (simStats, checkpoint.Checkpoint, error) {
	path := "/v1/sims/" + tenantName(i)
	raw, ok := c.do(-1, "checkpoint.get", "GET", path+"/checkpoint", "")
	if !ok {
		return simStats{}, checkpoint.Checkpoint{}, fmt.Errorf("GET checkpoint failed")
	}
	cp, err := checkpoint.Decode(raw)
	if err != nil {
		return simStats{}, cp, err
	}
	body, ok := c.do(-1, "status", "GET", path, "")
	if !ok {
		return simStats{}, cp, fmt.Errorf("GET status failed")
	}
	var st service.SimStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return simStats{}, cp, err
	}
	if st.VRound != vr {
		return simStats{}, cp, fmt.Errorf("at virtual round %d, want %d", st.VRound, vr)
	}
	return statsOf(cp, st.VNodes, vr, st.Joins, st.Resets), cp, nil
}
