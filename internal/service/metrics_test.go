package service

import (
	"bytes"
	"log/slog"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"linesearch/internal/sweep"
)

func TestMetricsCountsAndClasses(t *testing.T) {
	m := NewMetrics("/a", "/b")
	m.Observe("/a", 200, time.Millisecond)
	m.Observe("/a", 201, 2*time.Millisecond)
	m.Observe("/a", 404, 3*time.Millisecond)
	m.Observe("/a", 500, 4*time.Millisecond)
	m.Observe("/b", 200, time.Second)
	m.Observe("/nope", 200, time.Second) // unregistered: dropped

	snap := m.Snapshot(CacheStats{}, sweep.ManagerStats{}, ResilienceStats{})
	a := snap.Endpoints["/a"]
	if a.Status["2xx"] != 2 || a.Status["4xx"] != 1 || a.Status["5xx"] != 1 {
		t.Errorf("status classes = %v", a.Status)
	}
	if a.Latency.Count != 4 {
		t.Errorf("latency count = %d", a.Latency.Count)
	}
	if got, want := a.Latency.Sum, 0.010; got < want-1e-6 || got > want+1e-6 {
		t.Errorf("latency sum = %v, want %v", got, want)
	}
	if snap.Endpoints["/b"].Latency.Count != 1 {
		t.Errorf("endpoint /b = %+v", snap.Endpoints["/b"])
	}
	if len(snap.Endpoints) != 2 {
		t.Errorf("unregistered endpoint leaked into snapshot: %v", snap.Endpoints)
	}
}

func TestMetricsHistogramCumulative(t *testing.T) {
	m := NewMetrics("/a")
	m.Observe("/a", 200, 50*time.Microsecond) // <= 0.0001
	m.Observe("/a", 200, 2*time.Millisecond)  // <= 0.0025
	m.Observe("/a", 200, 40*time.Millisecond) // <= 0.05
	m.Observe("/a", 200, 10*time.Second)      // +Inf bucket

	b := m.Snapshot(CacheStats{}, sweep.ManagerStats{}, ResilienceStats{}).Endpoints["/a"].Latency.Buckets
	checks := map[string]int64{
		"0.0001": 1,
		"0.001":  1,
		"0.0025": 2,
		"0.025":  2,
		"0.05":   3,
		"5":      3,
		"+Inf":   4,
	}
	for ub, want := range checks {
		if b[ub] != want {
			t.Errorf("bucket %s = %d, want %d (all: %v)", ub, b[ub], want, b)
		}
	}
}

// Observations against unregistered endpoints must be visible: counted
// in dropped_observations and warned about exactly once.
func TestMetricsDroppedObservations(t *testing.T) {
	var buf bytes.Buffer
	m := NewMetrics("/a")
	m.SetLogger(slog.New(slog.NewTextHandler(&buf, nil)))
	m.Observe("/a", 200, time.Millisecond)
	m.Observe("/typo", 200, time.Millisecond)
	m.Observe("/typo", 200, time.Millisecond)
	m.Observe("/other-typo", 500, time.Millisecond)

	snap := m.Snapshot(CacheStats{}, sweep.ManagerStats{}, ResilienceStats{})
	if snap.DroppedObservations != 3 {
		t.Errorf("dropped_observations = %d, want 3", snap.DroppedObservations)
	}
	if got := strings.Count(buf.String(), "observation dropped"); got != 1 {
		t.Errorf("warned %d times, want exactly once:\n%s", got, buf.String())
	}
	if !strings.Contains(buf.String(), "endpoint=/typo") {
		t.Errorf("warning does not name the endpoint:\n%s", buf.String())
	}
}

// A logger-less registry still counts drops without panicking.
func TestMetricsDroppedObservationsNoLogger(t *testing.T) {
	m := NewMetrics("/a")
	m.Observe("/typo", 200, time.Millisecond)
	if got := m.Snapshot(CacheStats{}, sweep.ManagerStats{}, ResilienceStats{}).DroppedObservations; got != 1 {
		t.Errorf("dropped_observations = %d, want 1", got)
	}
}

// Every route the mux serves — in particular every /v1 path the
// cluster router proxies — must be registered in endpointNames, or its
// observations are silently dropped (the PR 3 /v1/searchtimes bug).
// This drives one request through the full handler per route and
// requires every observation to land: dropped stays zero and each
// endpoint's request counter moves. Adding a route without registering
// it fails here instead of in production.
func TestHandlerRoutesAllRegistered(t *testing.T) {
	routes := []struct {
		method, target, endpoint string
	}{
		{"GET", "/v1/plan?n=3&f=1", "/v1/plan"},
		{"GET", "/v1/searchtime?n=3&f=1&x=2", "/v1/searchtime"},
		{"GET", "/v1/searchtimes?n=3&f=1&xs=1,2", "/v1/searchtimes"},
		{"GET", "/v1/timeline?n=3&f=1&x=2", "/v1/timeline"},
		{"GET", "/v1/lowerbound?n=3&f=1", "/v1/lowerbound"},
		{"POST", "/v1/batch", "/v1/batch"},
		{"POST", "/v1/sweeps", "/v1/sweeps"},
		{"GET", "/v1/sweeps", "/v1/sweeps"},
		{"GET", "/v1/sweeps/nope", "/v1/sweeps/{id}"},
		{"GET", "/v1/sweeps/nope/result", "/v1/sweeps/{id}/result"},
		{"DELETE", "/v1/sweeps/nope", "/v1/sweeps/{id}"},
		{"GET", "/v1/cache/snapshot", "/v1/cache/snapshot"},
		{"PUT", "/v1/cache/snapshot", "/v1/cache/snapshot"},
		{"GET", "/v1/replica/checkpoints/nope", "/v1/replica/checkpoints/{id}"},
		{"PUT", "/v1/replica/checkpoints/nope", "/v1/replica/checkpoints/{id}"},
		{"GET", "/v1/replica/digest", "/v1/replica/digest"},
		{"GET", "/healthz", "/healthz"},
		{"GET", "/metrics", "/metrics"},
		{"GET", "/debug/traces", "/debug/traces"},
		{"GET", "/debug/events", "/debug/events"},
	}
	svc := newTestService(t, Config{})
	h := svc.Handler()
	for _, rt := range routes {
		// Bodies are deliberately empty or invalid: a 4xx observation
		// counts exactly like a 2xx one for registration purposes.
		doRaw(h, rt.method, rt.target)
	}
	snap := svc.metrics.Snapshot(CacheStats{}, sweep.ManagerStats{}, ResilienceStats{})
	if snap.DroppedObservations != 0 {
		t.Fatalf("dropped_observations = %d after exercising every route; "+
			"a route is missing from endpointNames", snap.DroppedObservations)
	}
	for _, rt := range routes {
		if snap.Endpoints[rt.endpoint].Latency.Count == 0 {
			t.Errorf("endpoint %s recorded no requests (route %s %s misregistered?)",
				rt.endpoint, rt.method, rt.target)
		}
	}
	// The inverse direction: every registered name must be reachable by
	// some route above, so endpointNames cannot rot into a list that
	// hides future misregistrations behind stale entries.
	covered := map[string]bool{}
	for _, rt := range routes {
		covered[rt.endpoint] = true
	}
	for _, name := range endpointNames {
		if !covered[name] {
			t.Errorf("registered endpoint %s is not exercised by this test; add a route for it", name)
		}
	}
}

// The trailing-path form a reverse proxy forwards (encoded queries,
// no mutation by the router) must observe into the same endpoints.
func TestObserveRouterProxiedPaths(t *testing.T) {
	svc := newTestService(t, Config{})
	h := svc.Handler()
	r := httptest.NewRequest("GET", "/v1/searchtime?n=3&f=1&x=2&strategy=doubling", nil)
	r.Header.Set("X-Forwarded-For", "203.0.113.9")
	r.Header.Set("X-Forwarded-Host", "router.example")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != 200 {
		t.Fatalf("proxied request failed: %d %s", w.Code, w.Body.String())
	}
	snap := svc.metrics.Snapshot(CacheStats{}, sweep.ManagerStats{}, ResilienceStats{})
	if snap.DroppedObservations != 0 {
		t.Fatalf("proxied request dropped its observation")
	}
	if snap.Endpoints["/v1/searchtime"].Latency.Count != 1 {
		t.Errorf("proxied request not observed under /v1/searchtime: %+v", snap.Endpoints)
	}
}

// A live snapshot — real endpoint histograms, runtime stats, cache
// and tracer sections — renders into the exposition.
func TestMetricsSnapshotMarshals(t *testing.T) {
	m := NewMetrics(endpointNames...)
	m.Observe("/v1/plan", 200, time.Millisecond)
	var buf bytes.Buffer
	if err := writePrometheus(&buf, m.Snapshot(CacheStats{Hits: 3, Misses: 1, Size: 1, Capacity: 128}, sweep.ManagerStats{}, ResilienceStats{})); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{
		"linesearchd_uptime_seconds ",
		`linesearchd_http_requests_total{endpoint="/v1/plan",class="2xx"} 1`,
		`linesearchd_http_request_duration_seconds_bucket{endpoint="/v1/plan",le="+Inf"} 1`,
		`linesearchd_plan_cache_operations_total{op="hits"} 3`,
		"linesearchd_dropped_observations_total 0",
		"linesearchd_goroutines ",
		"linesearchd_heap_alloc_bytes ",
		"linesearchd_trace_requests_total 0",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("exposition missing %s:\n%s", want, s)
		}
	}
}

// TestObserveZeroAllocs pins the request path's metrics cost: one
// observation on a registered endpoint — status-class counter plus
// latency histogram — allocates nothing.
func TestObserveZeroAllocs(t *testing.T) {
	m := NewMetrics(endpointNames...)
	allocs := testing.AllocsPerRun(1000, func() {
		m.Observe("/v1/plan", 200, 3*time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %v times per call, want 0", allocs)
	}
}
