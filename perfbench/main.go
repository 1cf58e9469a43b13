// Command perfbench is the repository benchmark. It runs one workload
// for a fixed wall-clock window, checks that every output is correct,
// and prints one JSON result as its last line of standard output.
//
//	bash perfbench/run.sh --workload tunnel-rtt --seed 7 --seconds 30 --trace 0
//
// Workloads (README.md records why each was chosen):
//
//	tunnel-rtt      board + six tapnode relays as OS processes over
//	                loopback; one in-process initiator flow round-trips
//	                8 × 64 B chunks through a fresh 3+2-hop tunnel pair
//	tunnel-bulk     same topology, two flows, 1 MiB in 16 KiB chunks
//	sim-throughput  experiments.ExtThroughput in-process (N=2000, 8000
//	                flows, windows {1,16} × loss {0,1,5}%)
//
// With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 it carries the per-layer metrics, gathered from outside the
// program (relay /metrics and pprof scrapes, child rusage, timed calls
// into public functions). Diagnostic lines, host metadata and sample
// counts go to standard error and to a JSON report under -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	binDir   string
	outDir   string
	fault    string // test hook; see -fault
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "tunnel-rtt | tunnel-bulk | sim-throughput")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed: payload bytes and the simulator seed")
	flag.IntVar(&cfg.seconds, "seconds", 30, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	flag.StringVar(&cfg.binDir, "bin", ".bench_build/bin", "directory holding tapboard and tapnode")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/results", "directory for the JSON report")
	flag.StringVar(&cfg.fault, "fault", "", "inject a failure to exercise the exit paths: mismatch | panic")
	flag.Parse()
	cfg.traced = trace == 1

	run, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %d)\n", cfg.workload, trace, cfg.seconds)
		os.Exit(2)
	}

	// Every exit path below stops the children first: a signal, a panic
	// on any goroutine (via goSafe), a failed check, and a clean finish.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		s := <-sig
		fmt.Fprintf(os.Stderr, "perfbench: %v: stopping children\n", s)
		stopAllClusters()
		os.Exit(3)
	}()
	defer func() {
		if r := recover(); r != nil {
			crash(r)
		}
	}()

	rep := newReport(cfg)
	run(cfg, rep)
	stopAllClusters()
	os.Exit(rep.finish())
}

// workloads maps each -workload name to its runner.
var workloads = map[string]func(config, *report){
	"tunnel-rtt":     func(c config, r *report) { runTunnel(c, r, rttShape) },
	"tunnel-bulk":    func(c config, r *report) { runTunnel(c, r, bulkShape) },
	"sim-throughput": runSim,
}

// goSafe runs fn on a new goroutine whose panic takes the same exit
// path as one on main's: children stopped, nonzero exit, no result.
func goSafe(fn func()) {
	go func() {
		defer func() {
			if r := recover(); r != nil {
				crash(r)
			}
		}()
		fn()
	}()
}

func crash(r any) {
	fmt.Fprintf(os.Stderr, "perfbench: panic: %v\n%s", r, debug.Stack())
	stopAllClusters()
	os.Exit(4)
}

// fatalf reports a set-up failure (not a failed check) and exits
// without a result.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	stopAllClusters()
	os.Exit(1)
}

// metricOut is one reported value.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// report accumulates one run: every metric with its sample count,
// ungated extras, correctness checks, and host metadata.
type report struct {
	cfg       config
	attempted int64
	failed    int64
	values    map[string]float64
	samples   map[string]int
	extra     map[string]float64
	failures  []string
	meta      map[string]any
}

func newReport(cfg config) *report {
	return &report{
		cfg:     cfg,
		values:  make(map[string]float64),
		samples: make(map[string]int),
		extra:   make(map[string]float64),
		meta:    hostMeta(cfg),
	}
}

// set records a metric from the spec table with its sample count.
func (r *report) set(name string, v float64, n int) {
	if _, ok := specByName[name]; !ok {
		panic("perfbench: metric not in the spec table: " + name)
	}
	r.values[name] = v
	r.samples[name] = n
}

// check records a correctness condition; a false one fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		r.failures = append(r.failures, msg)
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", msg)
	}
}

// finish prints the report and the result line and returns the exit
// code. Per-layer metrics a workload does not exercise read 0: the
// layer did no work in that run.
func (r *report) finish() int {
	kind := kindE2E
	if r.cfg.traced {
		kind = kindLayer
	}
	res := result{
		Correct:   len(r.failures) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricOut),
	}
	for _, s := range specs {
		if s.kind != kind {
			continue
		}
		v, ok := r.values[s.name]
		if !ok && kind == kindE2E {
			panic("perfbench: end-to-end metric not measured: " + s.name)
		}
		res.Metrics[s.name] = metricOut{Value: v, Unit: s.unit}
	}
	if res.Attempted < 1 {
		r.check(false, "no operation attempted")
		res.Correct = false
	}
	r.extra["fail_ratio"] = float64(r.failed) / float64(max(r.attempted, 1))
	r.writeReport(res)
	line, err := json.Marshal(res)
	if err != nil {
		panic(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeReport prints the human-readable report to stderr and saves the
// full JSON report (with sample counts and metadata) under -out.
func (r *report) writeReport(res result) {
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	meta, err := json.Marshal(r.meta)
	if err != nil {
		panic(err)
	}
	fmt.Fprintf(os.Stderr, "perfbench meta %s\n", meta)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-44s %14.6g %-6s n=%d\n", n, r.values[n], specByName[n].unit, r.samples[n])
	}
	extras := make([]string, 0, len(r.extra))
	for n := range r.extra {
		extras = append(extras, n)
	}
	sort.Strings(extras)
	for _, n := range extras {
		fmt.Fprintf(os.Stderr, "  %-44s %14.6g (not gated)\n", n, r.extra[n])
	}
	if r.cfg.outDir == "" {
		return
	}
	full := map[string]any{
		"result":   res,
		"values":   r.values,
		"samples":  r.samples,
		"extra":    r.extra,
		"failures": r.failures,
		"meta":     r.meta,
	}
	b, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		panic(err)
	}
	path := filepath.Join(r.cfg.outDir, reportName(r.cfg.workload, r.cfg.traced, r.cfg.seed))
	if err := os.MkdirAll(r.cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}

func reportName(workload string, traced bool, seed uint64) string {
	t := 0
	if traced {
		t = 1
	}
	return fmt.Sprintf("%s-trace%d-seed%d.json", workload, t, seed)
}

// traceOverhead records, for a traced run, the traced-minus-untraced
// difference of each end-to-end metric against the untraced report of
// the same workload and seed, when one exists under -out.
func (r *report) traceOverhead() {
	if !r.cfg.traced {
		return
	}
	b, err := os.ReadFile(filepath.Join(r.cfg.outDir, reportName(r.cfg.workload, false, r.cfg.seed)))
	if err != nil {
		r.meta["trace_overhead"] = "no untraced report of this workload and seed under -out"
		return
	}
	var prev struct {
		Values map[string]float64 `json:"values"`
	}
	if err := json.Unmarshal(b, &prev); err != nil {
		r.meta["trace_overhead"] = fmt.Sprintf("unreadable untraced report: %v", err)
		return
	}
	for _, s := range specs {
		if s.kind != kindE2E {
			continue
		}
		now, ok1 := r.values[s.name]
		was, ok2 := prev.Values[s.name]
		if ok1 && ok2 {
			r.extra["trace_overhead."+s.name] = now - was
		}
	}
}

// hostMeta describes where and how the run was made.
func hostMeta(cfg config) map[string]any {
	m := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"traced":     cfg.traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     readTrim("/proc/sys/kernel/osrelease"),
		"cpu_model":  cpuModel(),
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
	return m
}
