package tcptransport

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"tap/internal/obs"
)

// dropped totals the drop counters over every cause.
func (m *metrics) dropped() uint64 {
	return m.dropUnknownPeer.Load() + m.dropQueueFull.Load() +
		m.dropConnDown.Load() + m.dropNoHandler.Load() + m.dropEncode.Load()
}

// scrapeOf renders reg and parses it back, as a metrics endpoint's
// client would.
func scrapeOf(t *testing.T, reg *obs.Registry) *obs.Snapshot {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	snap, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	return snap
}

// TestScrapeCountsTraffic checks the registry-backed counters against
// known traffic, read the way an operator reads them: through a scrape
// of the transport's registry.
func TestScrapeCountsTraffic(t *testing.T) {
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	a := New(Config{Codec: textCodec{}, Registry: regA})
	b := New(Config{Codec: textCodec{}, Registry: regB})
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	bAddr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	a.SetPeer(1, bAddr)
	cb := newCollector()
	b.Attach(1, cb)

	const n = 25
	for i := 0; i < n; i++ {
		a.Send(0, 1, textMsg{body: []byte("metered")})
	}
	cb.wait(t, n)
	a.Send(0, 99, textMsg{body: []byte("void")}) // unknown peer → drop

	snap := scrapeOf(t, regA)
	if got := snap.Sum("tap_transport_sent_total"); got != n+1 {
		t.Fatalf("scraped sent %v, want %d", got, n+1)
	}
	if got := snap.Sum("tap_transport_dials_total"); got != 1 {
		t.Fatalf("scraped dials %v, want 1", got)
	}
	if got := snap.Sum("tap_transport_dropped_total"); got != 1 {
		t.Fatalf("scraped drops %v, want 1", got)
	}
	if got, ok := snap.Value("tap_transport_dropped_total", obs.Label{Name: "reason", Value: "unknown_peer"}); !ok || got != 1 {
		t.Fatalf("scraped unknown_peer drops %v ok=%v, want 1", got, ok)
	}
	if got, ok := snap.Value("tap_transport_frames_total", obs.Label{Name: "dir", Value: "out"}); !ok || got != n {
		t.Fatalf("frames out %v ok=%v, want %d", got, ok, n)
	}
	bytesOut, ok := snap.Value("tap_transport_bytes_total", obs.Label{Name: "dir", Value: "out"})
	if !ok || bytesOut == 0 {
		t.Fatalf("scraped bytes out %v ok=%v, want > 0", bytesOut, ok)
	}
	// b received exactly what a framed.
	snapB := scrapeOf(t, regB)
	if got := snapB.Sum("tap_transport_delivered_total"); got != n {
		t.Fatalf("b delivered %v, want %d", got, n)
	}
	if got, ok := snapB.Value("tap_transport_bytes_total", obs.Label{Name: "dir", Value: "in"}); !ok || got != bytesOut {
		t.Fatalf("b read %v bytes ok=%v, a wrote %v", got, ok, bytesOut)
	}
}

// TestScrapeUnderChurn renders the exposition continuously while
// connections are dying mid-scrape: every dial hands out a pipe whose
// far end closes immediately, so writers churn up and down as fast as
// Send can trigger them. The scrape must stay parseable and the gauges
// must return to rest afterward — queue depth zero, no active outbound
// conns — proving the inc/dec pairing survives teardown races.
func TestScrapeUnderChurn(t *testing.T) {
	reg := obs.NewRegistry()
	d := &memDialer{serve: func(c net.Conn) { c.Close() }}
	a := New(Config{Codec: textCodec{}, Dialer: d, Registry: reg})
	t.Cleanup(a.Close)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn driver
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				a.SetPeer(1, "mem")
				a.Send(0, 1, textMsg{body: []byte("doomed")})
			}
		}
	}()
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() { // concurrent scrapers
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sb strings.Builder
				if err := reg.WriteText(&sb); err != nil {
					t.Errorf("render: %v", err)
					return
				}
				if _, err := obs.ParseText(strings.NewReader(sb.String())); err != nil {
					t.Errorf("scrape under churn unparseable: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Let the last writer goroutines unwind, then check rest state.
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := scrapeOf(t, reg)
		depth, _ := snap.Value("tap_transport_queue_depth")
		active, _ := snap.Value("tap_transport_conns_active", obs.Label{Name: "dir", Value: "out"})
		opened := snap.Sum("tap_transport_conns_opened_total")
		closed := snap.Sum("tap_transport_conns_closed_total")
		if depth == 0 && active == 0 && opened == closed {
			if opened == 0 {
				t.Fatal("churn opened no connections — test exercised nothing")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges never settled: depth=%v active=%v opened=%v closed=%v",
				depth, active, opened, closed)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
