package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one tapboard or tapnode process.
type child struct {
	name    string
	cmd     *exec.Cmd
	lines   chan string   // stdout lines; closed at EOF
	stderr  *tailBuffer   // last few KiB of stderr, for diagnostics
	waited  chan struct{} // closed once Wait has returned
	rusage  *syscall.Rusage
	metrics string // host:port of /metrics and /debug/pprof, traced runs only
	listen  string // the board's endpoint
}

// cluster is one board plus its relays, all in one process group (the
// board's) so a single signal reaches every member.
type cluster struct {
	board  *child
	relays []*child
	pgid   int
	stop   sync.Once
}

var live struct {
	sync.Mutex
	clusters map[*cluster]bool
}

// launch starts bin with args in process group pgid (0: a new group led
// by the child). Pdeathsig covers the one exit path no handler sees: a
// SIGKILL of the benchmark itself.
func launch(name, bin string, pgid int, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pgid: pgid, Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c := &child{name: name, cmd: cmd, lines: make(chan string, 64), stderr: &tailBuffer{max: 4096}, waited: make(chan struct{})}
	cmd.Stderr = c.stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	// Drain stdout to EOF (the child never blocks on a full pipe), then
	// reap: Wait must follow the last read from the pipe.
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			select {
			case c.lines <- sc.Text():
			default: // nobody is waiting for late lines
			}
		}
		close(c.lines)
		_ = cmd.Wait() // exit status is irrelevant: we signaled it
		if cmd.ProcessState != nil {
			c.rusage, _ = cmd.ProcessState.SysUsage().(*syscall.Rusage)
		}
		close(c.waited)
	}()
	return c, nil
}

// expect waits for a stdout line starting with prefix and returns the
// rest of it.
func (c *child) expect(prefix string, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-c.lines:
			if !ok {
				return "", fmt.Errorf("%s exited before printing %q: %s", c.name, prefix, c.stderr.String())
			}
			if rest, found := strings.CutPrefix(line, prefix); found {
				return rest, nil
			}
		case <-deadline:
			return "", fmt.Errorf("%s: no %q line after %v", c.name, prefix, timeout)
		}
	}
}

// startCluster launches tapboard, then calls between (which registers
// the in-process initiators, so relays see them in their first peer
// table), then nRelays tapnodes in turn.
func startCluster(binDir string, nRelays int, nodeFlags []string, traced bool, between func(boardAddr string) error) (*cluster, error) {
	var metricsFlag []string
	if traced {
		metricsFlag = []string{"-metrics-addr", "127.0.0.1:0"}
	}
	b, err := launch("tapboard", filepath.Join(binDir, "tapboard"), 0, append([]string{"-listen", "127.0.0.1:0"}, metricsFlag...)...)
	if err != nil {
		return nil, err
	}
	cl := &cluster{board: b, pgid: b.cmd.Process.Pid}
	live.Lock()
	if live.clusters == nil {
		live.clusters = make(map[*cluster]bool)
	}
	live.clusters[cl] = true
	live.Unlock()

	fail := func(err error) (*cluster, error) {
		cl.shutdown()
		return nil, err
	}
	if traced {
		if b.metrics, err = b.expect("tapboard metrics listening on ", 10*time.Second); err != nil {
			return fail(err)
		}
	}
	if b.listen, err = b.expect("tapboard listening on ", 10*time.Second); err != nil {
		return fail(err)
	}
	if err := between(b.listen); err != nil {
		return fail(err)
	}
	// Relays join one at a time: each one's registration reply then lists
	// every member that joined before it, which is what lets the caller
	// route each hop to an earlier joiner without waiting for a refresh.
	args := append([]string{"-board", b.listen}, nodeFlags...)
	args = append(args, metricsFlag...)
	for i := 0; i < nRelays; i++ {
		r, err := launch(fmt.Sprintf("tapnode[%d]", i), filepath.Join(binDir, "tapnode"), cl.pgid, args...)
		if err != nil {
			return fail(err)
		}
		cl.relays = append(cl.relays, r)
		if traced {
			if r.metrics, err = r.expect("tapnode metrics listening on ", 10*time.Second); err != nil {
				return fail(err)
			}
		}
		if _, err := r.expect("tapnode addr=", 10*time.Second); err != nil {
			return fail(err)
		}
	}
	return cl, nil
}

func (cl *cluster) children() []*child { return append([]*child{cl.board}, cl.relays...) }

// shutdown terminates the process group and reaps every member, so each
// one's rusage is collected. SIGTERM first (tapnode and tapboard exit
// cleanly on it), SIGKILL for stragglers. Idempotent.
func (cl *cluster) shutdown() {
	cl.stop.Do(func() {
		_ = syscall.Kill(-cl.pgid, syscall.SIGTERM)
		deadline := time.After(3 * time.Second)
		for _, c := range cl.children() {
			select {
			case <-c.waited:
			case <-deadline:
				_ = syscall.Kill(-cl.pgid, syscall.SIGKILL)
				<-c.waited
			}
		}
		live.Lock()
		delete(live.clusters, cl)
		live.Unlock()
	})
}

// stopAllClusters shuts down every cluster still running; the exit
// paths call it before the process ends.
func stopAllClusters() {
	live.Lock()
	all := make([]*cluster, 0, len(live.clusters))
	for cl := range live.clusters {
		all = append(all, cl)
	}
	live.Unlock()
	for _, cl := range all {
		cl.shutdown()
	}
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
	max int
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// procCPU returns a live process's CPU time so far: the sum over its
// threads of /proc/<pid>/task/<tid>/schedstat's first field, which is in
// nanoseconds (the tick-based times in /proc/<pid>/stat are too coarse
// for the board's few milliseconds).
func procCPU(pid int) (time.Duration, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var total time.Duration
	for _, t := range tasks {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			continue // the thread exited meanwhile
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, errors.New("empty schedstat")
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("schedstat: %w", err)
		}
		total += time.Duration(ns)
	}
	return total, nil
}

// hostCPU reads the aggregate jiffies from /proc/stat: busy (user,
// system, irq), stolen by the hypervisor, and the total.
func hostCPU() (busy, steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i, s := range f[1:] {
		if i >= 8 { // guest time is already counted in user
			break
		}
		v, _ := strconv.ParseUint(s, 10, 64)
		total += v
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			steal += v
		default:
			busy += v
		}
	}
	return busy, steal, total
}

// hostShares turns two hostCPU readings into busy and steal shares.
func hostShares(busy0, steal0, total0, busy1, steal1, total1 uint64) (busy, steal float64) {
	d := float64(max(total1-total0, 1))
	return float64(busy1-busy0) / d, float64(steal1-steal0) / d
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(io.LimitReader(f, 1<<20))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// selfMaxRSS is this process's peak resident set in KiB.
func selfMaxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}
