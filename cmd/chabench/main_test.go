package main

import (
	"bytes"
	"errors"
	"os/exec"
	"strings"
	"testing"
)

// TestRetiredCompareFlagFailsLoudly pins what a stale script or a typo
// sees: the host-time gate lives in bench/ (`bench --compare`), -timing went
// with the values it blanked, there is no E10, and a word the flag package
// would leave unparsed is not dropped. Each must die with exit 2 before
// anything runs — not run the whole suite and exit 0 as if a gate had
// passed.
func TestRetiredCompareFlagFailsLoudly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the chabench binary")
	}
	bin := buildChabench(t)
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-compare", "x"}, "flag provided but not defined: -compare"},
		{[]string{"-timing=false"}, "flag provided but not defined: -timing"},
		{[]string{"E2"}, `unexpected argument "E2"`},
		{[]string{"-parallel", "false", "-only", "E1"}, `unexpected argument "false"`},
		{[]string{"-only", "E10"}, `unknown experiment "E10"`},
	} {
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, tc.args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if exit := new(exec.ExitError); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("chabench %v: err = %v, want exit status 2", tc.args, err)
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("chabench %v: stderr lacks %q:\n%s", tc.args, tc.want, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("chabench %v: ran something before failing:\n%s", tc.args, stdout.String())
		}
	}
}
