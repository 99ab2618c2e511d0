package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func startServer(t *testing.T, opts ServerOptions) *Server {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestServerEndpoints(t *testing.T) {
	r := New()
	r.Counter("ckpt.diff.writes").Add(3)
	r.Gauge("queue.depth").Set(2)
	srv := startServer(t, ServerOptions{Registry: r})
	base := "http://" + srv.Addr()

	code, body, hdr := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content-type = %q", ct)
	}
	if !strings.Contains(body, "ckpt_diff_writes 3") {
		t.Fatalf("/metrics body:\n%s", body)
	}

	code, body, hdr = get(t, base+"/snapshot")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("/snapshot status=%d type=%q", code, hdr.Get("Content-Type"))
	}
	var want bytes.Buffer
	if err := r.Snapshot().WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if body != want.String() {
		t.Fatalf("/snapshot differs from Registry.Snapshot JSON:\n%s\nvs\n%s", body, want.String())
	}

	code, body, _ = get(t, base+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"ok":true`) {
		t.Fatalf("/healthz default = %d %s", code, body)
	}

	code, body, _ = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Fatalf("pprof cmdline = %d %q", code, body)
	}
}

func TestHealthzReflectsLadder(t *testing.T) {
	var degraded atomic.Bool
	srv := startServer(t, ServerOptions{
		Health: func() HealthStatus {
			if degraded.Load() {
				return HealthStatus{Status: "degraded", OK: false}
			}
			return HealthStatus{Status: "ok", OK: true}
		},
	})
	url := "http://" + srv.Addr() + "/healthz"
	if code, body, _ := get(t, url); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthy = %d %s", code, body)
	}
	degraded.Store(true)
	if code, body, _ := get(t, url); code != http.StatusServiceUnavailable || !strings.Contains(body, `"status":"degraded"`) {
		t.Fatalf("degraded = %d %s", code, body)
	}
	degraded.Store(false)
	if code, _, _ := get(t, url); code != http.StatusOK {
		t.Fatalf("recovered = %d", code)
	}
}

func TestNilRegistryServesEmptyDocuments(t *testing.T) {
	srv := startServer(t, ServerOptions{})
	base := "http://" + srv.Addr()
	if code, body, _ := get(t, base+"/metrics"); code != http.StatusOK || body != "" {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, body, _ := get(t, base+"/snapshot"); code != http.StatusOK || !strings.Contains(body, `"metrics": []`) {
		t.Fatalf("/snapshot = %d %q", code, body)
	}
}

// TestConcurrentRegistrationSnapshotScrape exercises the registry under
// simultaneous registration, observation, snapshotting, and HTTP scraping —
// the combination the race detector must bless for a live ops endpoint.
func TestConcurrentRegistrationSnapshotScrape(t *testing.T) {
	r := New()
	srv := startServer(t, ServerOptions{Registry: r})
	base := "http://" + srv.Addr()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) { // registering + observing
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter(fmt.Sprintf("load.c%d.n%d", g, i%17)).Inc()
				r.Gauge("load.depth", L("g", fmt.Sprintf("%d", g))).Set(int64(i))
				r.Histogram("load.h", nil).Observe(float64(i % 3))
				r.FuncCounter(fmt.Sprintf("load.fn%d", g), func() int64 { return int64(i) })
			}
		}(g)
	}
	wg.Add(1)
	go func() { // snapshotting
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := r.Snapshot()
			for i := 1; i < len(snap.Metrics); i++ {
				if snap.Metrics[i].Name < snap.Metrics[i-1].Name {
					panic("snapshot out of order under concurrency")
				}
			}
		}
	}()
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) { // scraping
		code, _, _ := get(t, base+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("scrape status = %d", code)
		}
		code, _, _ = get(t, base+"/snapshot")
		if code != http.StatusOK {
			t.Fatalf("snapshot status = %d", code)
		}
	}
	close(stop)
	wg.Wait()
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.256.256.256:99999", ServerOptions{}); err == nil {
		t.Fatal("expected listen error")
	}
}
