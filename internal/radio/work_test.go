package radio

import (
	"testing"

	"vinfra/internal/cd"
)

// TestDenseRoundExaminesFewCandidates is the counted half of the decision-
// point exit: in metro-vi's client round a receiver stops after a few
// candidates rather than reading its whole cell, and a silent round reads no
// candidate and consults no adversary Filter. The counts are exact on any
// host; both rounds are held to the reference too.
func TestDenseRoundExaminesFewCandidates(t *testing.T) {
	infos, txs, radii := metroRound(0)
	cfg := Config{Radii: radii, Detector: cd.AC{}, Seed: 1}
	checkAllModes(t, "metro client round", cfg, 1, txs, infos)

	examined := func(mode path) float64 {
		m := Forced(cfg, mode)
		m.Deliver(0, txs, infos)
		return float64(m.Work().Examined) / float64(len(infos))
	}
	// The scan reads candidates in sender order, not nearest first: it is
	// logged for comparison, not gated.
	auto, scan := examined(pathAuto), examined(pathScan)
	t.Logf("metro client round, %d receivers, %d transmissions: %.2f candidates examined per receiver (scan: %.2f)", len(infos), len(txs), auto, scan)
	if auto > 5 {
		t.Errorf("%.2f candidates examined per receiver in the metro client round, want at most 5", auto)
	}

	cfg.Adversary = NewRandomLoss(0.3, 0.2, 1<<20, 5)
	silent := infos[:670]
	checkAllModes(t, "silent round", cfg, 2, nil, silent)
	m := MustMedium(cfg)
	m.Deliver(0, nil, silent)
	w := m.Work()
	t.Logf("silent round, %d receivers: %d candidates examined, %d Filter calls", len(silent), w.Examined, w.Filtered)
	if w.Examined != 0 || w.Filtered != 0 {
		t.Errorf("a silent round examined %d candidates and called Filter %d times, want 0 and 0", w.Examined, w.Filtered)
	}
}
