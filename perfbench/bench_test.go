package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestSpecsMatchBenchmarkJSON pins the metric table to BENCHMARK.json:
// same names, units and directions, in the same order and sections.
func TestSpecsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var doc struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []entry
	for _, s := range specs {
		e := entry{s.name, s.unit, s.better}
		if s.kind == kindE2E {
			e2e = append(e2e, e)
		} else {
			layer = append(layer, e)
		}
	}
	for _, c := range []struct {
		section    string
		json, code []entry
	}{{"end_to_end", doc.EndToEnd, e2e}, {"per_layer", doc.PerLayer, layer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the spec table %d", c.section, len(c.json), len(c.code))
			continue
		}
		for i := range c.json {
			if c.json[i] != c.code[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, spec table %+v", c.section, i, c.json[i], c.code[i])
			}
		}
	}
}

// TestNoChildSurvives kills or fails a run mid-workload in every way the
// benchmark can end abnormally and checks that no tapboard or tapnode it
// started outlives it.
func TestNoChildSurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the deployment")
	}
	bin := t.TempDir()
	build := func(dir string, args ...string) {
		cmd := exec.Command("go", append([]string{"build", "-o"}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build %v: %v\n%s", args, err, out)
		}
	}
	build("..", bin+"/", "./cmd/tapboard", "./cmd/tapnode")
	build(".", filepath.Join(bin, "perfbench"), ".")

	cases := []struct {
		name   string
		args   []string
		kill   syscall.Signal // sent once the timed window starts; 0 for none
		result bool           // whether a result line is expected
	}{
		{"sigterm", nil, syscall.SIGTERM, false},
		{"sigint", nil, syscall.SIGINT, false},
		{"sigkill", nil, syscall.SIGKILL, false},
		{"failed-check", []string{"-fault", "mismatch"}, 0, true},
		{"panic", []string{"-fault", "panic"}, 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			seconds := "60"
			if c.kill == 0 {
				seconds = "1"
			}
			args := append([]string{"-bin", bin, "-out", t.TempDir(), "-workload", "tunnel-rtt", "-seconds", seconds}, c.args...)
			cmd := exec.Command(filepath.Join(bin, "perfbench"), args...)
			var stdout bytes.Buffer
			cmd.Stdout = &stdout
			stderr, err := cmd.StderrPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			started := make(chan struct{})
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				sc := bufio.NewScanner(stderr)
				once := false
				for sc.Scan() {
					if !once && strings.Contains(sc.Text(), "timed window started") {
						once = true
						close(started)
					}
				}
			}()
			if c.kill != 0 {
				select {
				case <-started:
				case <-time.After(60 * time.Second):
					cmd.Process.Kill()
					t.Fatal("timed window never started")
				}
				if live := survivors(t, bin); len(live) != nRelays+1 {
					t.Errorf("before the kill: %d children running, want %d", len(live), nRelays+1)
				}
				if err := cmd.Process.Signal(c.kill); err != nil {
					t.Fatal(err)
				}
			}
			<-drained
			err = cmd.Wait()
			if err == nil {
				t.Errorf("exit status 0, want nonzero")
			}
			hasResult := strings.Contains(stdout.String(), `"correct"`)
			if hasResult != c.result {
				t.Errorf("result line printed: %v, want %v\n%s", hasResult, c.result, stdout.String())
			}
			if c.result && !strings.Contains(stdout.String(), `"correct":false`) {
				t.Errorf("failed check not reported as incorrect: %s", stdout.String())
			}
			// A SIGKILLed parent's children get SIGKILL from the kernel
			// (Pdeathsig); give them a moment to be reaped.
			deadline := time.Now().Add(5 * time.Second)
			for {
				live := survivors(t, bin)
				if len(live) == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("children survived the run: %v", live)
				}
				time.Sleep(50 * time.Millisecond)
			}
		})
	}
}

// TestRunShLeavesNoProcess runs run.sh in checkouts that lack the
// program and checks that it fails without a result and that nothing it
// started, directly or through the go command, outlives it. The test
// process is a child subreaper meanwhile, so every orphaned descendant
// is reparented to it and shows up in wait4.
func TestRunShLeavesNoProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the go command")
	}
	files := map[string][]byte{}
	for _, f := range []string{"run.sh", "go.mod", filepath.Join("..", "go.mod")} {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		files[f] = b
	}
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "CARGO_TARGET_DIR=") {
			env = append(env, kv)
		}
	}
	if err := setSubreaper(true); err != nil {
		t.Fatal(err)
	}
	defer setSubreaper(false)

	cases := []struct {
		name    string
		rootMod bool // whether the checkout has the program's go.mod (but no commands)
	}{{"no-program", false}, {"no-commands", true}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			root := t.TempDir()
			if err := os.Mkdir(filepath.Join(root, "perfbench"), 0o755); err != nil {
				t.Fatal(err)
			}
			for src, dst := range map[string]string{"run.sh": "perfbench/run.sh", "go.mod": "perfbench/go.mod"} {
				if err := os.WriteFile(filepath.Join(root, dst), files[src], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if c.rootMod {
				if err := os.WriteFile(filepath.Join(root, "go.mod"), files[filepath.Join("..", "go.mod")], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "tunnel-rtt", "--seed", "1", "--seconds", "1", "--trace", "0")
			cmd.Dir = root
			cmd.Env = env
			out, err := cmd.Output()
			if err == nil {
				t.Errorf("exit status 0, want nonzero")
			}
			if strings.Contains(string(out), `"correct"`) {
				t.Errorf("result line printed: %s", out)
			}
			if orphans := reapOrphans(5 * time.Second); len(orphans) > 0 {
				t.Errorf("processes outlived run.sh: %v", orphans)
			}
		})
	}
}

// setSubreaper makes the calling process a child subreaper, or stops it
// being one (prctl PR_SET_CHILD_SUBREAPER).
func setSubreaper(on bool) error {
	const prSetChildSubreaper = 36
	v := uintptr(0)
	if on {
		v = 1
	}
	if _, _, errno := syscall.RawSyscall(syscall.SYS_PRCTL, prSetChildSubreaper, v, 0); errno != 0 {
		return errno
	}
	return nil
}

// reapOrphans reaps every child the test process has left, waiting up to
// d for those still running, and returns their pids ("running" for any
// still alive at the deadline).
func reapOrphans(d time.Duration) []string {
	var out []string
	deadline := time.Now().Add(d)
	for {
		var ws syscall.WaitStatus
		pid, err := syscall.Wait4(-1, &ws, syscall.WNOHANG, nil)
		switch {
		case err != nil: // ECHILD: no children left
			return out
		case pid > 0:
			out = append(out, strconv.Itoa(pid))
		case time.Now().After(deadline):
			return append(out, "running")
		default:
			time.Sleep(20 * time.Millisecond)
		}
	}
}

// survivors lists the pids of running processes whose executable lives
// in bin, other than the benchmark itself.
func survivors(t *testing.T, bin string) []string {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		exe, err := os.Readlink(filepath.Join("/proc", e.Name(), "exe"))
		if err != nil || filepath.Dir(exe) != bin || filepath.Base(exe) == "perfbench" {
			continue
		}
		if stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat")); err == nil && strings.Contains(string(stat), ") Z ") {
			continue // a zombie has exited; only its parent's reap is pending
		}
		out = append(out, e.Name()+":"+filepath.Base(exe))
	}
	return out
}
