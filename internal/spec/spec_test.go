package spec

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

func minimal() string {
	return `{"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}}`
}

func TestParseDefaults(t *testing.T) {
	s, err := Parse([]byte(minimal()))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Seed != 1 || s.VRounds != 60 || s.Grid.Spacing != 6 {
		t.Fatalf("core defaults not applied: %+v", s)
	}
	if s.Radii.R1 != 10 || s.Radii.R2 != 20 {
		t.Fatalf("radii defaults not applied: %+v", s.Radii)
	}
	if s.App != "counter" || s.Leader != "fixed" {
		t.Fatalf("app/leader defaults not applied: app=%q leader=%q", s.App, s.Leader)
	}
	if s.Devices.Replicas != 3 || s.Devices.VMax != 0.02 {
		t.Fatalf("device defaults not applied: %+v", s.Devices)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "gird": 3}`))
	if err == nil || !strings.Contains(err.Error(), "gird") {
		t.Fatalf("want unknown-field error naming gird, got %v", err)
	}
	_, err = Parse([]byte(`{"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1, "spacng": 6}}`))
	if err == nil {
		t.Fatal("nested unknown field accepted")
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	_, err := Parse([]byte(minimal() + `{"version": "vinfra-spec/v1"}`))
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("want trailing-data error, got %v", err)
	}
}

func TestParseRejectsWrongVersion(t *testing.T) {
	_, err := Parse([]byte(`{"version": "vinfra-spec/v2", "grid": {"cols": 2, "rows": 1}}`))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
	if _, err = Parse([]byte(`{"grid": {"cols": 2, "rows": 1}}`)); err == nil {
		t.Fatal("missing version accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		want string
	}{
		{"no grid", `{"version": "vinfra-spec/v1"}`, "grid"},
		{"bad radii", `{"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "radii": {"r1": 30, "r2": 20}}`, "radii"},
		{"bad app", `{"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "app": "chess"}`, "app"},
		{"bad leader", `{"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "leader": "anarchy"}`, "leader"},
		{"targets without tracker", `{"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "devices": {"targets": 1}}`, "tracker"},
		{"negative shards", `{"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "engine": {"shards": -1}}`, "shards"},
		{"too many devices", `{"version": "vinfra-spec/v1", "grid": {"cols": 700, "rows": 700}}`, "limit"},
		// Sizes a request cannot talk its way around: device counts whose
		// product wraps int64 back to zero, and engine widths that would
		// have Build start 10^8 goroutines or construct 10^9 mediums.
		{"grid product wraps", `{"version": "vinfra-spec/v1", "grid": {"cols": 4294967296, "rows": 4294967296}}`, "limit"},
		{"replicas product wraps", `{"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 2}, "devices": {"replicas": 4611686018427387904}}`, "limit"},
		{"too many workers", `{"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "engine": {"workers": 100000000}}`, "engine.workers"},
		{"too many shards", `{"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "engine": {"shards": 1000000000}}`, "engine.shards"},
		{"unknown fault kind", `{"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "faults": [{"kind": "sharknado"}]}`, "kind"},
		{"fault field misuse", `{"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "faults": [{"kind": "crash_burst", "p": 0.5, "cells": 3}]}`, "cells"},
		{"bad fault window", `{"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "faults": [{"kind": "crash_burst", "p": 0.5, "from": 9, "until": 4}]}`, "window"},
		{"wipe without radius", `{"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "faults": [{"kind": "region_wipe", "at": 10}]}`, "radius"},
		{"burst without p", `{"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "faults": [{"kind": "crash_burst"}]}`, "p in"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.doc))
			if err == nil {
				t.Fatalf("accepted: %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestFaultSeedDefaultsAreIndexStable(t *testing.T) {
	s, err := Parse([]byte(`{
		"version": "vinfra-spec/v1", "seed": 7,
		"grid": {"cols": 2, "rows": 1},
		"faults": [
			{"kind": "crash_burst", "p": 0.5, "period": 40},
			{"kind": "churn_storm", "kills": 1, "period": 50}
		]}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.Faults[0].Seed != 7+101 || s.Faults[1].Seed != 7+202 {
		t.Fatalf("fault seeds %d, %d; want %d, %d", s.Faults[0].Seed, s.Faults[1].Seed, 7+101, 7+202)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	s, err := Parse([]byte(minimal()))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	out := s.JSON()
	s2, err := Parse(out)
	if err != nil {
		t.Fatalf("re-Parse of JSON(): %v\n%s", err, out)
	}
	if string(s2.JSON()) != string(out) {
		t.Fatalf("JSON not a fixed point:\n%s\nvs\n%s", out, s2.JSON())
	}
}

func TestTotalDevices(t *testing.T) {
	s, err := Parse([]byte(`{
		"version": "vinfra-spec/v1",
		"grid": {"cols": 2, "rows": 2},
		"app": "tracker",
		"devices": {"replicas": 3, "pingers": true, "listeners": 5, "targets": 2}}`))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	// 4 vnodes * 3 replicas + 4 pingers + 5 listeners + 2 targets + observer.
	if got := s.TotalDevices(); got != 12+4+5+3 {
		t.Fatalf("TotalDevices = %d, want %d", got, 12+4+5+3)
	}
}

// FuzzParse feeds Parse what visimd feeds it: whatever bytes sit in the
// state directory at boot and whatever arrives on POST /v1/sims. Parse must
// never panic, and a document it accepts must survive the persistSpec →
// recover cycle unchanged: JSON() parses again and re-encodes to the same
// bytes, within the device limit.
func FuzzParse(f *testing.F) {
	for _, path := range []string{
		"../../cmd/visimd/testdata/smoke.json",
		"../experiments/testdata/e13_jam_high_3x3.json",
	} {
		doc, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	for _, doc := range []string{
		minimal(),
		// The documents service.TestCreateRejects posts.
		`{"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "gird": 1}`,
		`{"version": "vinfra-spec/v9", "grid": {"cols": 2, "rows": 1}}`,
		`{"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "faults": [{"kind": "sharknado"}]}`,
		`{"version": "vinfra-spec/v1", "grid": {"cols": 2, "rows": 1}, "engine": {"shards": 1000000000}}`,
		`hello`,
		`{`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		s, err := Parse(doc)
		if err != nil {
			return
		}
		if n := s.TotalDevices(); n > MaxDevices {
			t.Fatalf("accepted a %d-device world (limit %d)", n, MaxDevices)
		}
		out := s.JSON()
		s2, err := Parse(out)
		if err != nil {
			t.Fatalf("re-Parse of JSON(): %v\n%s", err, out)
		}
		if again := s2.JSON(); !bytes.Equal(again, out) {
			t.Fatalf("JSON not a fixed point:\n%s\nvs\n%s", out, again)
		}
	})
}
