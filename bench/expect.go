package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"vinfra/internal/checkpoint"
	"vinfra/internal/vi"
	"vinfra/internal/wire"
)

// simStats are the simulated statistics of a run at one virtual-round
// boundary. They depend on the seed and the workload only — never on host
// time, engine path or process — so a change meant to move host time must
// leave every field identical; the benchmark checks that on every run.
type simStats struct {
	VRound            int     `json:"vround"`
	Rounds            int     `json:"rounds"`
	Transmissions     int     `json:"transmissions"`
	MaxMessageSize    int     `json:"max_message_size"`
	TotalBytes        int     `json:"total_bytes"`
	HaloTransmissions int     `json:"halo_transmissions"`
	Attached          int     `json:"attached"`
	Alive             int     `json:"alive"`
	Availability      float64 `json:"availability"`
	Unavailable       int     `json:"unavailable"`
	Stalls            int     `json:"stalls"`
	MaxStall          int     `json:"max_stall"`
	Joins             int     `json:"joins"`
	Resets            int     `json:"resets"`
	// Digest is the FNV-1a digest of the checkpoint body with the shard
	// geometry and the halo count zeroed — the only fields in which the
	// sequential and the region-sharded engine may differ — so
	// city-100k and city-100k-sharded pin the same digest.
	Digest string `json:"digest"`
}

// statsOf derives the simulated statistics from a checkpoint taken at
// virtual round vr of a deployment of nv virtual nodes. Every workload goes
// through here — spec worlds, the soak driver and service tenants all
// produce the same checkpoint type — so the pinned fields mean the same
// thing everywhere.
func statsOf(cp checkpoint.Checkpoint, nv, vr, joins, resets int) simStats {
	st := cp.Engine.Stats
	s := simStats{
		VRound: vr, Rounds: st.Rounds, Transmissions: st.Transmissions,
		MaxMessageSize: st.MaxMessageSize, TotalBytes: st.TotalBytes,
		HaloTransmissions: st.HaloTransmissions,
		Attached:          len(cp.Engine.Nodes),
		Joins:             joins, Resets: resets,
	}
	for i := range cp.Engine.Nodes {
		if cp.Engine.Nodes[i].Alive {
			s.Alive++
		}
	}
	mon := vi.NewMonitor()
	mon.Restore(cp.Monitor)
	sum := mon.SummaryThrough(nv, vr)
	s.Availability, s.Unavailable = sum.MeanAvailability, sum.Unavailable
	s.Stalls, s.MaxStall = sum.Stalls, sum.MaxStall

	cp.Engine.ShardCols, cp.Engine.ShardRows = 0, 0
	cp.Engine.Stats.HaloTransmissions = 0
	buf := cp.AppendTo(make([]byte, 0, cp.WireSize()))
	s.Digest = strconv.FormatUint(uint64(wire.DigestOf(buf)), 16)
	return s
}

// withoutHalo drops the one statistic the sharded engine adds.
func (s simStats) withoutHalo() simStats {
	s.HaloTransmissions = 0
	return s
}

//go:embed expect.json
var expectJSON []byte

// expectations maps workload name to seed (decimal) to the statistics
// pinned at that workload's pin point.
type expectations map[string]map[string]simStats

func loadExpectations() (expectations, error) {
	var e expectations
	if err := json.Unmarshal(expectJSON, &e); err != nil {
		return nil, fmt.Errorf("bench/expect.json: %w", err)
	}
	return e, nil
}

// checkPinned compares got with the pinned statistics for (workload, seed).
// It returns "match", "unpinned" when the seed has no entry, or a
// description of the first difference.
func (e expectations) checkPinned(workload string, seed int64, got simStats) string {
	want, ok := e[workload][strconv.FormatInt(seed, 10)]
	if !ok {
		return "unpinned"
	}
	if got == want {
		return "match"
	}
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	return fmt.Sprintf("simulated statistics differ from bench/expect.json: got %s want %s", g, w)
}

// writeExpectations rewrites bench/expect.json (the -pin mode). Keys are
// sorted by encoding/json, so the file is stable.
func writeExpectations(path string, e expectations) error {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
