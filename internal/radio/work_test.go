package radio

import (
	"testing"

	"vinfra/internal/cd"
)

// TestDenseRoundExaminesFewCandidates is the counted half of the decision-
// point exit: in metro-vi's client round a receiver stops after a few
// candidates rather than reading its whole cell, and — with no adversary, no
// gray zone and an exact detector — is counted, not concluded; under an
// adversary the same round concludes every receiver. A silent round reads no
// candidate and consults no adversary Filter. The counts are exact on any
// host; every round is held to the reference too.
func TestDenseRoundExaminesFewCandidates(t *testing.T) {
	infos, txs, radii := metroRound(0)
	cfg := Config{Radii: radii, Detector: cd.AC{}, Seed: 1}
	checkAllModes(t, "metro client round", cfg, 1, txs, infos)

	work := func(cfg Config, mode path) (perRx float64, concluded int) {
		m := Forced(cfg, mode)
		m.Deliver(0, txs, infos)
		w := m.Work()
		return float64(w.Examined) / float64(len(infos)), w.Concluded
	}
	// The scan reads candidates in sender order, not nearest first: it is
	// logged for comparison, not gated.
	auto, concluded := work(cfg, pathAuto)
	scan, _ := work(cfg, pathScan)
	t.Logf("metro client round, %d receivers, %d transmissions: %.2f candidates examined per receiver (scan: %.2f), %d concluded", len(infos), len(txs), auto, scan, concluded)
	if auto > 2.5 {
		t.Errorf("%.2f candidates examined per receiver in the metro client round, want at most 2.5", auto)
	}
	if concluded != 0 {
		t.Errorf("the metro client round concluded %d receivers, want 0: it is counted", concluded)
	}

	cfg.Adversary = NewRandomLoss(0.3, 0.2, 1<<20, 5)
	checkAllModes(t, "metro client round under RandomLoss", cfg, 1, txs, infos)
	lossy, concluded := work(cfg, pathAuto)
	t.Logf("under RandomLoss: %.2f candidates examined per receiver, %d concluded", lossy, concluded)
	if concluded != len(infos) {
		t.Errorf("under RandomLoss the metro client round concluded %d receivers, want all %d", concluded, len(infos))
	}

	silent := infos[:670]
	checkAllModes(t, "silent round", cfg, 2, nil, silent)
	m := MustMedium(cfg)
	m.Deliver(0, nil, silent)
	w := m.Work()
	t.Logf("silent round, %d receivers: %d candidates examined, %d Filter calls, %d concluded", len(silent), w.Examined, w.Filtered, w.Concluded)
	if w.Examined != 0 || w.Filtered != 0 || w.Concluded != 0 {
		t.Errorf("a silent round examined %d candidates, called Filter %d times and concluded %d receivers, want 0, 0 and 0", w.Examined, w.Filtered, w.Concluded)
	}
}
