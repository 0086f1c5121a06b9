package mach

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildCommand builds ./cmd/<name> into dir and returns the binary's path.
func buildCommand(t *testing.T, dir, name string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/"+name).CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

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
		buildCommand(t, dir, cmd)
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
			stdout, stderr := runCommand(t, 2, filepath.Join(dir, c.cmd), c.args...)
			if !strings.HasPrefix(stderr, c.want) {
				t.Errorf("stderr does not start with %q:\n%s", c.want, stderr)
			}
			if stdout != "" {
				t.Errorf("printed output before rejecting the flag:\n%s", stdout)
			}
		})
	}
}

// proc is a command running in the background with its output captured.
type proc struct {
	cmd            *exec.Cmd
	stdout, stderr bytes.Buffer
	exited         chan struct{}
}

// startCommand runs bin in the background. The test's cleanup kills it if
// it is still running.
func startCommand(t *testing.T, bin string, args ...string) *proc {
	t.Helper()
	p := &proc{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	p.cmd.Stdout, p.cmd.Stderr = &p.stdout, &p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		_ = p.cmd.Wait() // the exit status is read from ProcessState
		close(p.exited)
	}()
	t.Cleanup(func() {
		_ = p.cmd.Process.Kill() // fails only when the process already exited
		<-p.exited
	})
	return p
}

// wait returns the exit code once the process exits: -1 when a signal
// killed it.
func (p *proc) wait(t *testing.T) int {
	t.Helper()
	select {
	case <-p.exited:
		return p.cmd.ProcessState.ExitCode()
	case <-time.After(2 * time.Minute):
		t.Fatalf("%s did not exit", p.cmd)
		return 0
	}
}

// waitForFile returns once a file matches pattern, and fails the test if
// the process exits first: a signal sent after that would not land mid-run.
func (p *proc) waitForFile(t *testing.T, pattern string) {
	t.Helper()
	for {
		if m, _ := filepath.Glob(pattern); len(m) > 0 {
			return
		}
		select {
		case <-p.exited:
			t.Fatalf("%s exited before %s appeared; stderr:\n%s", p.cmd, pattern, p.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// runCommand runs bin to completion, requires exit code want, and returns
// what it printed.
func runCommand(t *testing.T, want int, bin string, args ...string) (stdout, stderr string) {
	t.Helper()
	p := startCommand(t, bin, args...)
	if code := p.wait(t); code != want {
		t.Fatalf("%s exited %d, want %d; stderr:\n%s", p.cmd, code, want, p.stderr.String())
	}
	return p.stdout.String(), p.stderr.String()
}

// TestMachsimResumesAfterSIGKILL kills a checkpointed machsim run without
// ceremony once its first checkpoint is on disk, so the checkpoint is all
// that survives. The resumed run must print the uninterrupted run's
// canonical result byte for byte and remove the checkpoint; and the same
// checkpoint with one payload byte flipped must be refused with exit 1,
// never resumed or silently restarted.
func TestMachsimResumesAfterSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds machsim and runs it four times")
	}
	dir := t.TempDir()
	machsim := buildCommand(t, dir, "machsim")
	ckpt := filepath.Join(dir, "run.mckp")
	args := []string{"-workload", "V2", "-scheme", "gab", "-frames", "160", "-width", "160", "-height", "96", "-canonical"}
	want, _ := runCommand(t, 0, machsim, args...)

	args = append(args, "-checkpoint", ckpt)
	p := startCommand(t, machsim, append(args, "-checkpoint-every", "4")...)
	p.waitForFile(t, ckpt)
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if code := p.wait(t); code != -1 {
		t.Fatalf("killed run exited %d before SIGKILL landed; stderr:\n%s", code, p.stderr.String())
	}
	saved, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}

	got, stderr := runCommand(t, 0, machsim, append(args, "-resume")...)
	if !strings.Contains(stderr, "machsim: resumed") {
		t.Errorf("the resumed run did not resume from the checkpoint; stderr:\n%s", stderr)
	}
	if got != want {
		t.Errorf("resumed result differs from the uninterrupted one:\n got %s\nwant %s", got, want)
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("checkpoint left behind after a completed run: %v", err)
	}

	saved[40] ^= 0xff // payload byte 8, past the 32-byte container header
	if err := os.WriteFile(ckpt, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	runCommand(t, 1, machsim, append(args, "-resume")...)
}

// TestMachfleetResumesAfterSIGKILL kills a sharded, checkpointed fleet run
// without ceremony once its first shard manifest is on disk, so the
// manifests are all that survives. The resumed run must reproduce the
// uninterrupted canonical aggregate and remove every manifest. The same
// manifests with one payload byte flipped in one of them must make exactly
// that shard recompute, and the run must still converge.
func TestMachfleetResumesAfterSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds machfleet and runs it four times")
	}
	dir := t.TempDir()
	machfleet := buildCommand(t, dir, "machfleet")
	state := filepath.Join(dir, "fleet.d")
	args := []string{"-sessions", "96", "-shards", "4", "-frames", "48", "-width", "160", "-height", "96",
		"-workloads", "V1,V3", "-canonical"}
	want, _ := runCommand(t, 0, machfleet, args...)

	args = append(args, "-checkpoint-dir", state)
	p := startCommand(t, machfleet, append(args, "-checkpoint-every", "4")...)
	p.waitForFile(t, filepath.Join(state, "*.mfst"))
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	if code := p.wait(t); code != -1 {
		t.Fatalf("killed run exited %d before SIGKILL landed", code)
	}
	paths, err := filepath.Glob(filepath.Join(state, "*.mfst"))
	if err != nil {
		t.Fatal(err)
	}
	saved := make([][]byte, len(paths))
	for i, path := range paths {
		if saved[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}

	got, stderr := runCommand(t, 0, machfleet, append(args, "-resume")...)
	if !strings.Contains(stderr, "resumed at session") {
		t.Errorf("no shard resumed from its manifest; stderr:\n%s", stderr)
	}
	if got != want {
		t.Errorf("resumed aggregate differs from the uninterrupted one:\n got %s\nwant %s", got, want)
	}
	if entries, err := os.ReadDir(state); err != nil || len(entries) != 0 {
		t.Errorf("manifest directory not empty after a completed run: %v %v", entries, err)
	}

	saved[0][40] ^= 0xff // payload byte 8, past the 32-byte container header
	for i, path := range paths {
		if err := os.WriteFile(path, saved[i], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, stderr = runCommand(t, 0, machfleet, append(args, "-resume")...)
	if n := strings.Count(stderr, "recomputing"); n != 1 {
		t.Errorf("%d shards recomputed after one manifest was corrupted, want 1; stderr:\n%s", n, stderr)
	}
	if got != want {
		t.Errorf("aggregate after recomputing a corrupt shard differs from the uninterrupted one:\n got %s\nwant %s", got, want)
	}
}

// TestMachfleetContainsInjectedFaults drives the fault injector to a
// contained exit 0: injected session panics are quarantined, identically
// under two shard and worker topologies.
func TestMachfleetContainsInjectedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("builds machfleet and runs it three times")
	}
	machfleet := buildCommand(t, t.TempDir(), "machfleet")
	panics := []string{"-sessions", "64", "-inject-panic-rate", "0.2", "-inject-panic-seed", "7",
		"-frames", "24", "-width", "160", "-height", "96", "-workloads", "V1"}
	report, _ := runCommand(t, 0, machfleet, append(panics, "-shards", "4")...)
	if !strings.Contains(report, "quarantined session") {
		t.Errorf("no session quarantined at panic rate 0.2:\n%s", report)
	}
	// The quarantined set is a pure hash of the seed and the session, so
	// every topology quarantines the same population.
	a, _ := runCommand(t, 0, machfleet, append(panics, "-shards", "2", "-workers", "3", "-canonical")...)
	b, _ := runCommand(t, 0, machfleet, append(panics, "-shards", "8", "-workers", "1", "-canonical")...)
	if a != b {
		t.Errorf("aggregates differ between 2 shards of 3 workers and 8 shards of 1:\n%s\n%s", a, b)
	}
}
