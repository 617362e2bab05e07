package main

import (
	"fmt"
	"runtime"
	"time"

	"vinfra/internal/cd"
	"vinfra/internal/cha"
	"vinfra/internal/checkpoint"
	"vinfra/internal/det"
	"vinfra/internal/geo"
	"vinfra/internal/mobility"
	"vinfra/internal/radio"
	"vinfra/internal/shard"
	"vinfra/internal/sim"
	"vinfra/internal/spec"
	"vinfra/internal/vi"
)

// sink keeps the compiler from discarding the measured calls.
var sink int

// captureEvery and captureKeep bound what the round hook copies out: the
// inputs of every 16th traced round until 8 are kept (a copy of a 100k-node
// world costs milliseconds; more of them would be the tracer's overhead).
const captureEvery, captureKeep = 16, 8

// capture is one radio round's inputs to Medium.Deliver.
type capture struct {
	round sim.Round
	txs   []sim.Transmission
	infos []sim.NodeInfo
}

// roundHook is the traced run's Engine.OnRound observer on a spec world.
// Armed, it records one span per radio round and copies out the inputs of
// sampled rounds for the replay phase; counting (the warm-up, a fixed
// window) it tallies receptions for the exact radio ratios. A nil hook
// (untraced run, or the soak driver) ignores every call.
type roundHook struct {
	tr  *tracer
	eng *sim.Engine

	armed  bool
	parent int32
	last   time.Time
	stepMs []float64

	count                           bool
	receivers, nonEmpty, collisions int

	caps []capture
}

func newRoundHook(tr *tracer, w *spec.World) *roundHook {
	h := &roundHook{tr: tr, eng: w.Eng}
	w.Eng.OnRound(h.observe)
	return h
}

// arm switches span recording on or off for the virtual round about to
// start under span parent (already open, so the first round span lies
// inside it).
func (h *roundHook) arm(on bool, parent int32) {
	if h == nil {
		return
	}
	h.armed, h.parent, h.last = on, parent, time.Now()
}

func (h *roundHook) observe(r sim.Round, txs []sim.Transmission, rxs []sim.Reception) {
	if h.count {
		for id := range rxs {
			if !h.eng.Alive(sim.NodeID(id)) {
				continue
			}
			h.receivers++
			if len(rxs[id].Msgs) > 0 {
				h.nonEmpty++
			}
			if rxs[id].Collision {
				h.collisions++
			}
		}
	}
	if !h.armed {
		return
	}
	now := time.Now()
	h.tr.add(h.parent, "round", h.last, now)
	h.stepMs = append(h.stepMs, ms(now.Sub(h.last)))
	if int(r)%captureEvery == 0 && len(h.caps) < captureKeep {
		c := capture{round: r, txs: append([]sim.Transmission(nil), txs...)}
		for id := 0; id < h.eng.NumNodes(); id++ {
			nid := sim.NodeID(id)
			c.infos = append(c.infos, sim.NodeInfo{ID: nid, At: h.eng.Position(nid), Alive: h.eng.Alive(nid)})
		}
		h.caps = append(h.caps, c)
		now = time.Now() // the copy is the tracer's cost, not the next round's
	}
	h.last = now
}

// layerInputs is what the steady phase hands the replay phase.
type layerInputs struct {
	pin, end     simStats
	pinCP, endCP checkpoint.Checkpoint
	per          int     // radio rounds per virtual round
	vroundMs     float64 // steady-state median
	seed         int64
}

// layerMetrics fills in the per-layer metrics of an engine workload (and,
// for the service workload, of the direct world built from a tenant's
// spec). Exact counts come from the pin point; timings from replaying each
// layer's public entry points on inputs captured during the steady phase.
func layerMetrics(r *run, ph int32, s *sut, hook *roundHook, in layerInputs) {
	tr := r.tracer
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	// sim and vi: exact counts at the pin point.
	r.set("sim.tx_per_round", ratio(in.pin.Transmissions, in.pin.Rounds))
	r.set("sim.halo_tx_per_round", ratio(in.pin.HaloTransmissions, in.pin.Rounds))
	r.set("sim.wire_bytes_per_round", ratio(in.pin.TotalBytes, in.pin.Rounds))
	r.set("sim.nodes_attached", float64(in.pin.Attached))
	r.set("sim.alive_ratio", ratio(in.pin.Alive, in.pin.Attached))
	r.set("vi.green_ratio", in.pin.Availability)
	r.set("vi.joins", float64(in.pin.Joins))
	r.set("vi.resets", float64(in.pin.Resets))
	r.set("vi.stalls", float64(in.pin.Stalls))
	r.set("vi.max_stall", float64(in.pin.MaxStall))

	// Radio round time: from the hook's spans, or the virtual round split
	// evenly where the engine is out of reach.
	stepP50 := in.vroundMs / float64(in.per)
	if hook != nil && len(hook.stepMs) > 0 {
		stepP50 = median(hook.stepMs)
		r.setN("sim.step_ms_p99", percentile(hook.stepMs, 0.99), len(hook.stepMs))
		r.set("radio.rx_nonempty_ratio", ratio(hook.nonEmpty, hook.receivers))
		r.set("radio.collision_ratio", ratio(hook.collisions, hook.receivers))
	}
	r.set("sim.step_ms_p50", stepP50)
	r.set("vi.node_ns_per_node_round", stepP50*1e6/float64(in.end.Alive))

	// Positions to replay the geometry layers on: the last captured round,
	// or the final checkpoint where there is no hook.
	var pts []geo.Point
	var caps []capture
	if hook != nil {
		caps = hook.caps
	}
	if len(caps) > 0 {
		for _, ni := range caps[len(caps)-1].infos {
			pts = append(pts, ni.At)
		}
	} else {
		for _, n := range in.endCP.Engine.Nodes {
			pts = append(pts, geo.Point{X: n.X, Y: n.Y})
		}
	}

	// The layers below need the deployment's geometry; the soak driver
	// keeps its own private, so an equivalent spec world stands in.
	w := s.world
	if w == nil {
		aux, err := spec.Build(spec.Spec{Version: spec.Version, Seed: in.seed,
			Grid: spec.Grid{Cols: stormCols, Rows: stormRows}, Devices: spec.Devices{Pingers: true}})
		if err != nil {
			r.fail("replay: %v", err)
			return
		}
		defer aux.Eng.Close()
		w = aux
	}
	radii := geo.Radii{R1: w.Spec.Radii.R1, R2: w.Spec.Radii.R2}

	// radio: replay Deliver on a bench-owned medium with the spec's
	// channel configuration.
	deliverP50 := 0.0
	if len(caps) > 0 {
		med := radio.MustMedium(radio.Config{Radii: radii, Detector: cd.AC{}, Seed: w.Spec.Seed})
		for _, c := range caps { // size the medium's buffers
			sink += len(med.Deliver(c.round, c.txs, c.infos))
		}
		var times []float64
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for rep := 0; rep < 3; rep++ {
			for _, c := range caps {
				id := tr.begin(ph, "radio.Deliver")
				t := time.Now()
				sink += len(med.Deliver(c.round, c.txs, c.infos))
				times = append(times, ms(time.Since(t)))
				tr.end(id)
			}
		}
		runtime.ReadMemStats(&m1)
		deliverP50 = median(times)
		r.setN("radio.deliver_ms_p50", deliverP50, len(times))
		r.set("radio.deliver_share", deliverP50/stepP50)
		r.set("radio.allocs_per_deliver", float64(m1.Mallocs-m0.Mallocs)/float64(len(times)))

		// geo: what Deliver does with the index — rebuild it over the
		// round's transmissions, then one 3x3 probe per receiver.
		c := caps[len(caps)-1]
		var txPts []geo.Point
		for _, tx := range c.txs {
			txPts = append(txPts, tx.From)
		}
		ix := geo.BuildCellIndex(txPts, radii.R2)
		id := tr.begin(ph, "geo.CellIndex")
		r.set("geo.rebuild_us", perOpNs(200, func(int) { ix.Rebuild(txPts) })/1e3)
		var buf []int32
		r.set("geo.near_ns", perOpNs(len(pts), func(i int) {
			buf = ix.Near(buf[:0], pts[i], 1)
			sink += len(buf)
		}))
		tr.end(id)
	}

	// shard: the partition plane's per-node arithmetic.
	id := tr.begin(ph, "shard.Plan")
	plan := shard.MustPlan(radii.R2, 2, 2)
	minX, minY := plan.CellOf(pts[0])
	maxX, maxY := minX, minY
	for _, p := range pts {
		cx, cy := plan.CellOf(p)
		minX, maxX = min(minX, cx), max(maxX, cx)
		minY, maxY = min(minY, cy), max(maxY, cy)
	}
	plan.Fit(minX, minY, maxX, maxY)
	reps := max(1, 100000/len(pts))
	r.set("shard.cellof_ns", perOpNs(reps*len(pts), func(i int) {
		cx, cy := plan.CellOf(pts[i%len(pts)])
		sink += int(cx + cy)
	}))
	r.set("shard.halospan_ns", perOpNs(reps*len(pts), func(i int) {
		cx, cy := plan.CellOf(pts[i%len(pts)])
		c0, c1, r0, r1 := plan.HaloSpan(cx, cy)
		sink += c0 + c1 + r0 + r1
	})-r.values["shard.cellof_ns"])
	tr.end(id)

	// mobility: one random-waypoint move per roaming device per round.
	mobMs := 0.0
	if movers := w.Spec.Devices.Listeners; movers > 0 && s.world != nil {
		id := tr.begin(ph, "mobility.Move")
		area := geo.Rect{Min: pts[0], Max: pts[0]}
		for _, p := range pts {
			area.Min.X, area.Max.X = min(area.Min.X, p.X), max(area.Max.X, p.X)
			area.Min.Y, area.Max.Y = min(area.Min.Y, p.Y), max(area.Max.Y, p.Y)
		}
		mv := &mobility.RandomWaypoint{Area: area, VMax: w.Spec.Devices.VMax}
		rng := det.NewStream(in.seed, 77)
		moveNs := perOpNs(len(pts), func(i int) {
			p := mv.Move(0, pts[i], rng.Intn)
			sink += int(p.X)
		})
		tr.end(id)
		r.set("mobility.move_ns", moveNs)
		mobMs = moveNs * float64(movers) / 1e6
		r.set("mobility.est_ms_per_round", mobMs)
	}
	// What is left of a radio round once the replayed deliver and the
	// estimated mobility are taken out: Transmit/Receive fan-out, stats,
	// hooks — and, on the sharded path, partition and halo exchange.
	r.set("sim.residual_ms_per_round", stepP50-deliverP50-mobMs)

	// vi: proposal codec, region lookup, monitor.
	id = tr.begin(ph, "vi")
	input := vi.RoundInput{Msgs: [][]byte{[]byte("ping-07-0123"), []byte("ping-08-0123")}, VNBroadcast: true}
	val := input.Encode()
	r.set("vi.roundinput_encode_ns", perOpNs(20000, func(int) { sink += input.Encode().Len() }))
	r.set("vi.roundinput_decode_ns", perOpNs(20000, func(int) {
		got, err := vi.DecodeRoundInput(val)
		if err != nil {
			panic(err)
		}
		sink += len(got.Msgs)
	}))
	r.set("vi.regionof_ns", perOpNs(reps*len(pts), func(i int) { sink += int(w.Dep.RegionOf(pts[i%len(pts)])) }))

	fresh := vi.NewMonitor()
	nv := s.nv
	r.set("vi.monitor_observe_ns", perOpNs(200*nv, func(i int) {
		fresh.Observe(vi.VNodeID(i%nv), cha.Output{Instance: cha.Instance(i/nv + 1), Color: cha.Green})
	}))
	mon := vi.NewMonitor()
	mon.Restore(in.endCP.Monitor)
	rep := timeReps(5, 200, 50*time.Millisecond, func() {
		for v := 0; v < nv; v++ {
			sink += mon.ReportThrough(vi.VNodeID(v), in.end.VRound).Green
		}
	})
	r.setN("vi.monitor_report_us", median(rep)*1e3, len(rep))
	var snap vi.MonitorSnapshot
	rep = timeReps(5, 200, 50*time.Millisecond, func() { snap = mon.Snapshot() })
	r.setN("vi.monitor_snapshot_ms", median(rep), len(rep))
	r.set("vi.monitor_snapshot_kb", float64(snap.WireSize())/1024)
	tr.end(id)

	// cha: one agreement instance on a Core, ballot through veto-2, with
	// the garbage collection a green instance allows.
	id = tr.begin(ph, "cha.Core")
	core := cha.NewCore()
	r.set("cha.instance_ns", perOpNs(20000, func(i int) {
		k := cha.Instance(i + 1)
		b := core.Begin(k, val)
		core.ObserveBallots([]cha.Ballot{b}, false)
		core.ObserveVeto1(core.NeedVeto1(), false)
		out := core.ObserveVeto2(core.NeedVeto2(), false)
		if out.Color == cha.Green {
			core.GC(k)
		}
	}))
	tr.end(id)

	// checkpoint: capture, encode, decode, and restore into a fresh build —
	// which must then checkpoint to the same bytes.
	id = tr.begin(ph, "checkpoint.roundtrip")
	var cp checkpoint.Checkpoint
	rep = timeReps(3, 20, 200*time.Millisecond, func() { cp = s.checkpoint() })
	r.setN("checkpoint.capture_ms", median(rep), len(rep))
	var enc []byte
	rep = timeReps(3, 20, 200*time.Millisecond, func() { enc = cp.Encode() })
	r.setN("checkpoint.encode_ms", median(rep), len(rep))
	rep = timeReps(3, 20, 200*time.Millisecond, func() {
		if _, err := checkpoint.Decode(enc); err != nil {
			panic(err)
		}
	})
	r.setN("checkpoint.decode_ms", median(rep), len(rep))
	if s.world != nil {
		rep = timeReps(3, 20, 200*time.Millisecond, func() { sink += len(s.world.Eng.Snapshot().Nodes) })
		r.setN("sim.snapshot_ms", median(rep), len(rep))
	}
	if err := restoreCheck(r, s, cp, enc); err != nil {
		r.fail("restore: %v", err)
	}
	tr.end(id)

	if s.doc != nil {
		r.set("spec.parse_us", perOpNs(200, func(int) {
			if _, err := spec.Parse(s.doc); err != nil {
				panic(err)
			}
		})/1e3)
	}
}

// restoreCheck lays cp over a fresh build and requires it to checkpoint to
// the same bytes (restored ≡ uninterrupted), timing the restore.
func restoreCheck(r *run, s *sut, cp checkpoint.Checkpoint, enc []byte) error {
	target, err := s.rebuild()
	if err != nil {
		return err
	}
	defer target.close()
	if target.world != nil {
		// The engine layer alone, on a second fresh build.
		only, err := s.rebuild()
		if err != nil {
			return err
		}
		t := time.Now()
		err = only.world.Eng.Restore(cp.Engine)
		r.set("sim.restore_ms", ms(time.Since(t)))
		only.close()
		if err != nil {
			return err
		}
	}
	t := time.Now()
	if err := target.restore(cp); err != nil {
		return err
	}
	r.set("checkpoint.restore_ms", ms(time.Since(t)))
	if again := target.checkpoint().Encode(); string(again) != string(enc) {
		return fmt.Errorf("a restored world checkpoints to different bytes (%d vs %d)", len(again), len(enc))
	}
	return nil
}
