package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"

	"tap/internal/obs"
)

var httpClient = &http.Client{Timeout: 90 * time.Second}

// scrape fetches and parses one process's /metrics.
func scrape(hostport string) (*obs.Snapshot, error) {
	resp, err := httpClient.Get("http://" + hostport + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", hostport, resp.Status)
	}
	return obs.ParseText(resp.Body)
}

// snapshotOf renders an in-process registry as a parsed scrape, so the
// initiators' counters are read the same way as the relays'.
func snapshotOf(reg *obs.Registry) (*obs.Snapshot, error) {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return nil, err
	}
	return obs.ParseText(&buf)
}

// cpuProfile fetches a CPU profile of the given length from a process's
// pprof endpoint.
func cpuProfile(hostport string, seconds int) ([]byte, error) {
	resp, err := httpClient.Get(fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", hostport, seconds))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("profile %s: %s", hostport, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// counters is a set of scrapes, one per process, summed by series.
type counters []*obs.Snapshot

func (cs counters) sum(name string) float64 {
	t := 0.0
	for _, s := range cs {
		t += s.Sum(name)
	}
	return t
}

func (cs counters) value(name string, labels ...obs.Label) float64 {
	t := 0.0
	for _, s := range cs {
		v, _ := s.Value(name, labels...)
		t += v
	}
	return t
}
