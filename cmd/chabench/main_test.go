package main

import (
	"bytes"
	"errors"
	"os/exec"
	"strings"
	"testing"
)

// TestRetiredCompareFlagFailsLoudly pins what a stale script sees: the
// host-time gate lives in bench/ (`bench --compare`), and a leftover
// `chabench -compare report.json` must die on flag parsing with exit 2 —
// not run the whole suite and exit 0 as if a gate had passed.
func TestRetiredCompareFlagFailsLoudly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the chabench binary")
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(buildChabench(t), "-compare", "x")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if exit := new(exec.ExitError); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Errorf("chabench -compare x: err = %v, want exit status 2", err)
	}
	if want := "flag provided but not defined: -compare"; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("ran something before failing:\n%s", stdout.String())
	}
}
