package mach

import (
	"bytes"
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCLIRejectsBadFlags builds calibrate and report and runs each with an
// out-of-range scale flag: the command must exit with the usage code 2,
// name the flag on stderr, and print nothing to stdout, so a bad value can
// neither panic mid-run nor be silently ignored.
func TestCLIRejectsBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two commands")
	}
	dir := t.TempDir()
	for _, cmd := range []string{"calibrate", "report"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(dir, cmd), "./cmd/"+cmd).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", cmd, err, out)
		}
	}
	cases := []struct {
		cmd  string
		args []string
		want string // stderr prefix naming the flag
	}{
		{"calibrate", []string{"-videos", "17"}, "calibrate: -videos 17:"},
		{"calibrate", []string{"-videos", "0"}, "calibrate: -videos 0:"},
		{"calibrate", []string{"-frames", "0"}, "calibrate: -frames 0:"},
		{"calibrate", []string{"-width", "0"}, "calibrate: -width/-height 0x180:"},
		{"calibrate", []string{"-height", "30"}, "calibrate: -width/-height 320x30:"},
		{"report", []string{"-exp", "table2", "-videos", "99"}, "report: -videos 99:"},
		{"report", []string{"-exp", "table2", "-frames", "-5"}, "report: -frames -5:"},
		{"report", []string{"-exp", "table2", "-width", "-8"}, "report: -width/-height -8x0:"},
		{"report", []string{"-exp", "table2", "-height", "30"}, "report: -width/-height 0x30:"},
	}
	for _, c := range cases {
		t.Run(c.cmd+" "+strings.Join(c.args, " "), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, filepath.Join(dir, c.cmd), c.args...)
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 2 {
				t.Fatalf("run returned %v, want exit status 2; stderr:\n%s", err, stderr.String())
			}
			if !strings.HasPrefix(stderr.String(), c.want) {
				t.Errorf("stderr does not start with %q:\n%s", c.want, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("printed output before rejecting the flag:\n%s", stdout.String())
			}
		})
	}
}
