package cluster

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"linesearch/internal/faultpoint"
	"linesearch/internal/service"
)

// fleet is a router fronting n in-process linesearchd backends.
type fleet struct {
	router   *Router
	frontend *httptest.Server // the router's own listener
	backends []*httptest.Server
	services []*service.Service
}

func (f *fleet) close() {
	f.frontend.Close()
	f.router.Close()
	for _, b := range f.backends {
		b.Close()
	}
	for _, s := range f.services {
		s.Close()
	}
}

// newFleet builds n real service instances behind httptest listeners
// and a router over them. The health loop is disabled: tests drive
// ProbeAll deterministically.
func newFleet(t *testing.T, n int, cfg Config) *fleet {
	t.Helper()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	f := &fleet{}
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		svc := service.New(service.Config{Logger: quiet})
		srv := httptest.NewServer(svc.Handler())
		f.services = append(f.services, svc)
		f.backends = append(f.backends, srv)
		urls = append(urls, srv.URL)
	}
	cfg.Backends = urls
	cfg.HealthInterval = -1
	if cfg.Logger == nil {
		cfg.Logger = quiet
	}
	router, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	f.router = router
	f.frontend = httptest.NewServer(router.Handler())
	t.Cleanup(f.close)
	return f
}

// backendName returns the ring member name of backend i.
func (f *fleet) backendName(i int) string {
	return strings.TrimPrefix(f.backends[i].URL, "http://")
}

// cacheStats reads one backend's plan-cache counters.
func (f *fleet) cacheStats(i int) service.CacheStats {
	return f.services[i].Cache().Stats()
}

// get issues one GET through the router's frontend.
func (f *fleet) get(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(f.frontend.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// queryMix is the request set the byte-identity and chaos tests drive:
// every query-class endpoint with a spread of plan keys.
func queryMix() []string {
	var out []string
	for n := 2; n <= 7; n++ {
		for fcount := 1; fcount < n && fcount <= 3; fcount++ {
			out = append(out,
				fmt.Sprintf("/v1/plan?n=%d&f=%d", n, fcount),
				fmt.Sprintf("/v1/searchtime?n=%d&f=%d&x=4.5", n, fcount),
				fmt.Sprintf("/v1/lowerbound?n=%d&f=%d", n, fcount),
			)
		}
	}
	return out
}

// TestRouterByteIdenticalToSingleProcess pins the proxy transparency
// contract: for the full query mix, a 3-backend fleet answers byte for
// byte what one unsharded linesearchd answers.
func TestRouterByteIdenticalToSingleProcess(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	single := service.New(service.Config{Logger: quiet})
	defer single.Close()
	ref := httptest.NewServer(single.Handler())
	defer ref.Close()

	f := newFleet(t, 3, Config{})
	for _, q := range queryMix() {
		want, err := http.Get(ref.URL + q)
		if err != nil {
			t.Fatalf("reference GET %s: %v", q, err)
		}
		wantBody, _ := io.ReadAll(want.Body)
		want.Body.Close()

		code, gotBody := f.get(t, q)
		if code != want.StatusCode {
			t.Fatalf("%s: status %d via router, %d direct", q, code, want.StatusCode)
		}
		if !bytes.Equal(gotBody, wantBody) {
			t.Errorf("%s: body differs\nrouter: %s\ndirect: %s", q, gotBody, wantBody)
		}
	}
	// The same request twice must land on the same backend (ring
	// placement is deterministic): cache counters prove it — a second
	// pass over the mix is all hits somewhere, never a duplicate build.
	var missesBefore, hitsBefore int64
	for i := range f.backends {
		cs := f.cacheStats(i)
		missesBefore += cs.Misses
		hitsBefore += cs.Hits
	}
	for _, q := range queryMix() {
		f.get(t, q)
	}
	var missesAfter, hitsAfter int64
	for i := range f.backends {
		cs := f.cacheStats(i)
		missesAfter += cs.Misses
		hitsAfter += cs.Hits
	}
	if missesAfter != missesBefore {
		t.Errorf("second pass caused %d cache misses; ring placement not sticky", missesAfter-missesBefore)
	}
	if hitsAfter <= hitsBefore {
		t.Errorf("second pass produced no cache hits (before %d, after %d)", hitsBefore, hitsAfter)
	}
}

// TestRouterFailoverOnKilledBackend is the deterministic integration
// test: a 3-backend fleet, one backend killed mid-run via its
// injection point, every client request still succeeds via retry, and
// the killed backend's share is served by the survivors with no
// duplicate side effects (the query mix is read-only compute).
func TestRouterFailoverOnKilledBackend(t *testing.T) {
	f := newFleet(t, 3, Config{})
	t.Cleanup(faultpoint.Reset)

	// Kill backend 0: every forward to it fails at the injection point,
	// exactly as if the process dropped the connection.
	faultpoint.Arm(fpForward+"."+f.backendName(0), faultpoint.Rule{Mode: faultpoint.ModeError})

	for _, q := range queryMix() {
		code, body := f.get(t, q)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d with a killed backend, body %s", q, code, body)
		}
	}
	st := f.router.Stats()
	if st.ProxyErrors != 0 {
		t.Errorf("proxy errors = %d, want 0 (failover should absorb the kill)", st.ProxyErrors)
	}
	if st.Retries == 0 {
		t.Errorf("retries = 0; the killed backend's keys never failed over")
	}

	// Restart: disarm the point. Until its breaker cooldown lapses the
	// backend is a last resort and its keys are served by the survivors.
	faultpoint.Reset()
	for _, q := range queryMix() {
		if code, body := f.get(t, q); code != http.StatusOK {
			t.Fatalf("%s after restart: status %d, body %s", q, code, body)
		}
	}
}

// TestRouterChaosKillRestart is the acceptance-criteria run: client
// load races a chaos schedule that kills backend 0, lets it fail, then
// restarts it — zero failed client requests end to end. Run under
// -race in CI.
func TestRouterChaosKillRestart(t *testing.T) {
	f := newFleet(t, 3, Config{BreakerCooldown: 50 * time.Millisecond})
	t.Cleanup(faultpoint.Reset)

	mix := queryMix()
	var wg sync.WaitGroup
	var paused sync.RWMutex // held by the schedule to pause the load
	errs := make(chan string, 256)
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := mix[(i*7+w)%len(mix)]
				paused.RLock()
				resp, err := client.Get(f.frontend.URL + q)
				paused.RUnlock()
				if err != nil {
					errs <- fmt.Sprintf("worker %d: %v", w, err)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("worker %d: %s -> %d", w, q, resp.StatusCode)
				}
			}
		}(w)
	}

	// The chaos schedule: kill backend 0, let the fleet absorb it, then
	// restart it. The load pauses over the restart so that no half-open
	// request can close the breaker: the probe-driven reset must.
	time.Sleep(50 * time.Millisecond)
	faultpoint.Arm(fpForward+"."+f.backendName(0), faultpoint.Rule{Mode: faultpoint.ModeError})
	time.Sleep(150 * time.Millisecond)
	paused.Lock()
	faultpoint.Reset()
	b0 := f.router.backends[f.backendName(0)]
	if breakerClosed(b0) {
		t.Error("backend 0's breaker closed while its forward path was failing")
	}
	time.Sleep(100 * time.Millisecond)

	// Restarted, with its 50ms window lapsed: a healthy probe closes
	// backend 0's breaker, and it serves its keys again.
	f.router.ProbeAll()
	if !breakerClosed(b0) {
		t.Error("healthy probe after backend 0's window lapsed did not close its breaker")
	}
	paused.Unlock()
	served := b0.requests.Load()
	for deadline := time.Now().Add(5 * time.Second); b0.requests.Load() == served; {
		if time.Now().After(deadline) {
			t.Error("backend 0 received no request after its breaker closed")
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("failed client request: %s", e)
	}
	if st := f.router.Stats(); st.Proxied < 50 {
		t.Fatalf("only %d requests proxied; chaos window too small to mean anything", st.Proxied)
	}
}

// TestRouterRelaysShedResponse pins the admission-contract relay: when
// every backend sheds, the client sees the backend's own 429/503 with
// its Retry-After, not a synthetic router error.
func TestRouterRelaysShedResponse(t *testing.T) {
	var attempts int
	var mu sync.Mutex
	shed := func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		mu.Unlock()
		w.Header().Set("Retry-After", "2")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		w.Write([]byte(`{"error":"query capacity exhausted"}`))
	}
	backends := []*httptest.Server{
		httptest.NewServer(http.HandlerFunc(shed)),
		httptest.NewServer(http.HandlerFunc(shed)),
	}
	defer backends[0].Close()
	defer backends[1].Close()
	router, err := New(Config{
		Backends:       []string{backends[0].URL, backends[1].URL},
		HealthInterval: -1,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	resp, err := http.Get(front.URL + "/v1/plan?n=3&f=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 relayed", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Fatalf("Retry-After = %q, want the backend's own value", ra)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "query capacity exhausted") {
		t.Fatalf("body = %s, want the backend's shed payload", body)
	}
	// Both breakers now hold the Retry-After cooldown: the next request
	// within it still goes out (they are a last resort), but the
	// breakers report open.
	now := time.Now()
	for _, b := range router.backends {
		if !b.breaker.open(now) {
			t.Errorf("backend %s breaker closed; Retry-After not honored", b.name)
		}
	}
}

// TestRouterSingleAttemptForSideEffects pins the no-duplicates rule:
// a failing sweep submission is tried exactly once.
func TestRouterSingleAttemptForSideEffects(t *testing.T) {
	var posts int
	var mu sync.Mutex
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			mu.Lock()
			posts++
			mu.Unlock()
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer failing.Close()
	ok := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer ok.Close()
	router, err := New(Config{
		Backends:       []string{failing.URL, ok.URL},
		HealthInterval: -1,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	front := httptest.NewServer(router.Handler())
	defer front.Close()

	// Find which backend the sweeps home key pins to; only a fleet
	// where the failing backend is home exercises the property, so pin
	// deterministically by asking the ring.
	home := router.ring.Owner("sweeps")
	failingName := strings.TrimPrefix(failing.URL, "http://")
	if home != failingName {
		// Swap roles: rebuild with only the failing backend so the home
		// is forced onto it.
		router.Close()
		front.Close()
		router, err = New(Config{
			Backends:       []string{failing.URL},
			HealthInterval: -1,
			Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer router.Close()
		front = httptest.NewServer(router.Handler())
		defer front.Close()
	}

	resp, err := http.Post(front.URL+"/v1/sweeps", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want the relayed 503", resp.StatusCode)
	}
	mu.Lock()
	defer mu.Unlock()
	if posts != 1 {
		t.Fatalf("failing sweep submission tried %d times, want exactly 1", posts)
	}
}

// TestRouterWarmTransfer pins the tentpole acceptance criterion: after
// a topology change, keys that moved to the joining backend are served
// from its warmed cache — hits, zero misses, zero builds on the
// serving path.
func TestRouterWarmTransfer(t *testing.T) {
	var logs lockedBuffer
	const warmKeys = 64
	f := newFleet(t, 2, Config{WarmKeys: warmKeys, Logger: slog.New(slog.NewTextHandler(&logs, nil))})

	// The joiner and the ring the reshape will install, built up front
	// so the test knows which warmed keys move before it reshapes.
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	joiner := service.New(service.Config{Logger: quiet})
	joinerSrv := httptest.NewServer(joiner.Handler())
	t.Cleanup(func() { joinerSrv.Close(); joiner.Close() })
	joinerName := strings.TrimPrefix(joinerSrv.URL, "http://")
	next := NewRing(f.router.cfg.VNodes)
	for i := range f.backends {
		next.Add(f.backendName(i))
	}
	next.Add(joinerName)

	// ownedByJoiner counts, per donor, the entries of the export the
	// warm transfer will fetch that the new ring gives the joiner.
	ownedByJoiner := func() []int {
		owned := make([]int, len(f.services))
		for i, svc := range f.services {
			for _, e := range svc.Cache().Export(warmKeys).Entries {
				if next.Owner(e.Key.Hash()) == joinerName {
					owned[i]++
				}
			}
		}
		return owned
	}
	moved := func() int {
		total := 0
		for _, n := range ownedByJoiner() {
			total += n
		}
		return total
	}

	// Warm the fleet through the router so each backend caches its
	// share of the mix. Ports are ephemeral, so the base mix leaves
	// the joiner no key about once in 400 runs ((2/3)^15); extend the
	// mix until it owns at least one.
	var planQueries []string
	warm := func(q string) {
		t.Helper()
		if code, body := f.get(t, q); code != http.StatusOK {
			t.Fatalf("%s: %d %s", q, code, body)
		}
		planQueries = append(planQueries, q)
	}
	for n := 2; n <= 9; n++ {
		for fc := 1; fc < n && fc <= 2; fc++ {
			warm(fmt.Sprintf("/v1/plan?n=%d&f=%d", n, fc))
		}
	}
	for n := 10; moved() == 0; n++ {
		warm(fmt.Sprintf("/v1/plan?n=%d&f=1", n))
	}
	want := moved()

	urls := []string{f.backends[0].URL, f.backends[1].URL, joinerSrv.URL}
	if err := f.router.SetTopology(urls); err != nil {
		t.Fatalf("SetTopology: %v", err)
	}

	// why explains a failure with the router's own account of the
	// transfer — its counters, journal and log — plus how many donor
	// entries the new ring gives the joiner, so a failure names its
	// cause instead of only its symptom.
	why := func() string {
		st := f.router.Stats()
		var b strings.Builder
		fmt.Fprintf(&b, "\njoiner %s; router warm transfer: runs=%d keys=%d errors=%d",
			joinerSrv.URL, st.WarmRuns, st.WarmKeys, st.WarmErrors)
		for _, ev := range f.router.journal.Events() {
			fmt.Fprintf(&b, "\nrouter journal #%d %s member=%q %s", ev.Seq, ev.Kind, ev.Member, ev.Detail)
		}
		for i, owned := range ownedByJoiner() {
			fmt.Fprintf(&b, "\ndonor %s holds %d entries owned by the joiner", f.backendName(i), owned)
		}
		b.WriteString("\nrouter log:\n" + logs.String())
		return b.String()
	}

	// The warm transfer must have pushed exactly the keys the new ring
	// gives the joiner, in one import that builds each of them.
	cs := joiner.Cache().Stats()
	if cs.Imports != 1 || cs.Warmed != int64(want) {
		t.Fatalf("joiner cache after transfer: imports=%d warmed=%d, want 1 import warming %d keys%s",
			cs.Imports, cs.Warmed, want, why())
	}
	st := f.router.Stats()
	if st.WarmRuns != 1 || st.WarmKeys != int64(want) || st.WarmErrors != 0 {
		t.Fatalf("router warm stats = runs %d, keys %d, errors %d, want 1, %d, 0%s",
			st.WarmRuns, st.WarmKeys, st.WarmErrors, want, why())
	}

	// Replay the full mix: the joiner serves its keys as pure hits.
	// Warmed builds happened at import time; the serving path must add
	// hits only.
	warmedBefore, missesBefore := cs.Warmed, cs.Misses
	for _, q := range planQueries {
		if code, body := f.get(t, q); code != http.StatusOK {
			t.Fatalf("%s after reshape: %d %s%s", q, code, body, why())
		}
	}
	cs = joiner.Cache().Stats()
	if cs.Misses != missesBefore {
		t.Errorf("joiner took %d cache misses serving transferred keys, want 0 (recompute on the serving path)%s",
			cs.Misses-missesBefore, why())
	}
	if cs.Warmed != warmedBefore {
		t.Errorf("joiner warmed %d more entries while serving; imports must not happen on the request path%s",
			cs.Warmed-warmedBefore, why())
	}
	if cs.Hits == 0 {
		t.Errorf("joiner served no hits; transferred keys were not routed to it%s", why())
	}
}

// lockedBuffer is a log sink safe for the router's concurrent writers.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// openBreaker opens b's breaker for an hour, or closes it: the state a
// run of failed probes or a long Retry-After leaves behind.
func openBreaker(b *backend, open bool) {
	if open {
		b.breaker.failure(time.Now(), time.Hour)
	} else {
		b.breaker.success()
	}
}

// breakerClosed reports whether b's breaker is closed: no open or
// half-open window and a zero consecutive count. open() cannot tell a
// closed breaker from a half-open one.
func breakerClosed(b *backend) bool {
	b.breaker.mu.Lock()
	defer b.breaker.mu.Unlock()
	return b.breaker.openUntil.IsZero() && b.breaker.failures == 0
}

// TestRouterHealthQuorumVoting pins the detection rule: failed probes
// open a backend's breaker only after QuarantineVotes of them in a
// row, and one healthy probe closes it again once its window lapsed.
func TestRouterHealthQuorumVoting(t *testing.T) {
	var healthy = true
	var mu sync.Mutex
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ok := healthy
		mu.Unlock()
		if r.URL.Path == "/healthz" && !ok {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer flaky.Close()
	router, err := New(Config{
		Backends:        []string{flaky.URL},
		HealthInterval:  -1,
		QuarantineVotes: 3,
		BreakerCooldown: 2 * time.Second,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	name := strings.TrimPrefix(flaky.URL, "http://")
	b := router.backends[name]

	setHealthy := func(v bool) { mu.Lock(); healthy = v; mu.Unlock() }
	now := time.Unix(1000, 0)
	probe := func() { router.probe(b, router.probeOnce(b), now) }
	opens := func() int64 { return router.journal.Counts()["breaker_open"] }

	setHealthy(false)
	probe()
	probe()
	if b.breaker.open(now) {
		t.Fatal("breaker open after 2 failed probes; threshold is 3")
	}
	probe()
	if !b.breaker.open(now) {
		t.Fatal("breaker not open after 3 consecutive failed probes")
	}
	if got := opens(); got != 1 {
		t.Fatalf("breaker_open events = %d, want 1", got)
	}
	// A flap must not double-count transitions while already open.
	probe()
	if got := opens(); got != 1 {
		t.Fatalf("extra failed probe while open recounted the transition: %d events", got)
	}
	setHealthy(true)
	now = now.Add(2 * time.Second)
	probe()
	if !breakerClosed(b) {
		t.Fatal("healthy probe after the window lapsed did not close the breaker and reset its count")
	}
}

// TestRouterSlowVote pins the histogram-fed rule: a backend whose mean
// proxied latency over a probe window exceeds SlowThreshold fails its
// probes exactly like a dead one.
func TestRouterSlowVote(t *testing.T) {
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer fast.Close()
	router, err := New(Config{
		Backends:        []string{fast.URL},
		HealthInterval:  -1,
		QuarantineVotes: 2,
		BreakerCooldown: 2 * time.Second,
		SlowThreshold:   10 * time.Millisecond,
		Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	name := strings.TrimPrefix(fast.URL, "http://")
	b := router.backends[name]
	now := time.Unix(1000, 0)
	probe := func() { router.probe(b, router.probeOnce(b), now) }

	// Feed the histogram the latencies the probe window will diff: the
	// proxied path observed a slow spell.
	b.hist.Observe(50 * time.Millisecond)
	b.hist.Observe(60 * time.Millisecond)
	probe() // failure 1: healthz ok, but mean 55ms > 10ms
	if b.breaker.open(now) {
		t.Fatal("one slow window opened the breaker; threshold is 2")
	}
	b.hist.Observe(40 * time.Millisecond)
	probe() // failure 2
	if !b.breaker.open(now) {
		t.Fatal("two consecutive slow windows did not open the breaker")
	}
	// A quiet window (no new observations) reads as healthy: dc == 0.
	now = now.Add(2 * time.Second)
	probe()
	if !breakerClosed(b) {
		t.Fatal("quiet window did not close the breaker")
	}
}

// TestRouterSlowVoteUnderTraffic pins the slow rule against a backend
// that keeps answering: its healthy answers must not reset the
// consecutive count the slow windows build, or the breaker would never
// open while traffic flows. The mixed case answers nine requests in ten
// fast and one at 100ms, so each answer but one is under the threshold
// while every window's mean is over it.
func TestRouterSlowVoteUnderTraffic(t *testing.T) {
	mixed := []string{"/v1/plan?n=3&f=1&delay=100ms"}
	for len(mixed) < 10 {
		mixed = append(mixed, "/v1/plan?n=3&f=1")
	}
	for _, tc := range []struct {
		name    string
		queries []string // one probe window's traffic, in order
	}{
		{"all_slow", []string{"/v1/plan?n=3&f=1&delay=20ms"}},
		{"mixed", mixed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if d, err := time.ParseDuration(r.URL.Query().Get("delay")); err == nil {
					time.Sleep(d)
				}
				w.WriteHeader(http.StatusOK)
			}))
			defer backend.Close()
			router, err := New(Config{
				Backends:        []string{backend.URL},
				HealthInterval:  -1,
				QuarantineVotes: 2,
				SlowThreshold:   5 * time.Millisecond,
				Logger:          slog.New(slog.NewTextHandler(io.Discard, nil)),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer router.Close()
			front := httptest.NewServer(router.Handler())
			defer front.Close()
			b := router.backends[strings.TrimPrefix(backend.URL, "http://")]

			for window := 0; window < 2; window++ {
				for _, q := range tc.queries {
					resp, err := http.Get(front.URL + q)
					if err != nil {
						t.Fatal(err)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("window %d: %s -> %d", window, q, resp.StatusCode)
					}
				}
				router.ProbeAll()
			}
			if !b.breaker.open(time.Now()) {
				t.Fatal("two slow windows under traffic did not open the breaker")
			}
		})
	}
}

// TestProbeNeverShortensRetryAfter pins that a healthy probe closes a
// breaker only once its window lapsed: a backend that sheds /v1/* with
// Retry-After: 5 while its /healthz answers 200 stays unavailable after
// a probe round.
func TestProbeNeverShortensRetryAfter(t *testing.T) {
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.WriteHeader(http.StatusOK)
			return
		}
		w.Header().Set("Retry-After", "5")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer shedding.Close()
	router, err := New(Config{
		Backends:       []string{shedding.URL},
		HealthInterval: -1,
		Attempts:       1,
		Logger:         slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	front := httptest.NewServer(router.Handler())
	defer front.Close()
	b := router.backends[strings.TrimPrefix(shedding.URL, "http://")]

	resp, err := http.Get(front.URL + "/v1/plan?n=3&f=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || b.requests.Load() != 1 {
		t.Fatalf("status %d after %d attempts, want one relayed 429", resp.StatusCode, b.requests.Load())
	}
	router.ProbeAll()
	if b.breaker.allow(time.Now()) {
		t.Fatal("a healthy probe cut the backend's Retry-After window short")
	}
}

// TestRouterTopologyEndpoint drives PUT /admin/topology over HTTP.
func TestRouterTopologyEndpoint(t *testing.T) {
	f := newFleet(t, 2, Config{WarmKeys: -1})
	body := fmt.Sprintf(`{"backends": [%q]}`, f.backends[0].URL)
	req, _ := http.NewRequest(http.MethodPut, f.frontend.URL+"/admin/topology", strings.NewReader(body))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("topology update: %d", resp.StatusCode)
	}
	if got := f.router.Backends(); len(got) != 1 || got[0] != f.backendName(0) {
		t.Fatalf("Backends() = %v after shrink", got)
	}
	// Invalid payloads are rejected without touching the ring.
	req, _ = http.NewRequest(http.MethodPut, f.frontend.URL+"/admin/topology", strings.NewReader(`{"backends": []}`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty topology accepted: %d", resp.StatusCode)
	}
}

// TestRoutingPolicy pins the retry/pinning table.
func TestRoutingPolicy(t *testing.T) {
	cases := []struct {
		method, path  string
		wantKey       string // "" = any backend; "sweeps" = pinned; "plan" = key-hashed
		wantRetryable bool
	}{
		{"GET", "/v1/plan?n=3&f=1", "plan", true},
		{"GET", "/v1/searchtime?n=3&f=1&x=2", "plan", true},
		{"POST", "/v1/batch", "", true},
		{"POST", "/v1/sweeps", "sweeps", false},
		{"GET", "/v1/sweeps", "sweeps", true},
		{"DELETE", "/v1/sweeps/abc", "sweeps", false},
		{"GET", "/v1/cache/snapshot", "", true},
		{"PUT", "/v1/cache/snapshot", "", false},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(tc.method, tc.path, nil)
		key, retryable := routingPolicy(req)
		if retryable != tc.wantRetryable {
			t.Errorf("%s %s: retryable = %v, want %v", tc.method, tc.path, retryable, tc.wantRetryable)
		}
		switch tc.wantKey {
		case "sweeps":
			if key != "sweeps" {
				t.Errorf("%s %s: key = %q, want sweeps pin", tc.method, tc.path, key)
			}
		case "":
			if key != "" {
				t.Errorf("%s %s: key = %q, want any-backend", tc.method, tc.path, key)
			}
		case "plan":
			if key == "" || key == "sweeps" {
				t.Errorf("%s %s: key = %q, want a plan-key hash", tc.method, tc.path, key)
			}
		}
	}
	// The plan key normalizes exactly like the service cache: same key
	// for defaulted and explicit mindist, and for model=crash vs none.
	base := httptest.NewRequest("GET", "/v1/plan?n=3&f=1", nil)
	explicit := httptest.NewRequest("GET", "/v1/plan?n=3&f=1&mindist=1&model=crash", nil)
	k1, _ := routingPolicy(base)
	k2, _ := routingPolicy(explicit)
	if k1 != k2 {
		t.Errorf("defaulted and explicit plan params hash differently: %s vs %s", k1, k2)
	}
	timeline := httptest.NewRequest("GET", "/v1/timeline?n=3&f=1&x=2", nil)
	k3, _ := routingPolicy(timeline)
	if k3 != k1 {
		t.Errorf("timeline and plan for the same key hash differently; cache locality lost")
	}
}

// TestRouterReplicaReadFanout pins how a replica serves a read: when
// the read's primary owner is unavailable, the ring walk sends the
// request to the key's second owner first (one request, no fan-out),
// and the answer is byte-identical to a healthy single process (plan
// construction is deterministic on every owner). The primary's link is
// dead too, and it is never tried.
func TestRouterReplicaReadFanout(t *testing.T) {
	defer faultpoint.Reset()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	single := service.New(service.Config{Logger: quiet})
	defer single.Close()
	ref := httptest.NewServer(single.Handler())
	defer ref.Close()

	f := newFleet(t, 3, Config{})

	queries := []string{
		"/v1/searchtime?n=3&f=1&x=4.5",
		"/v1/searchtimes?n=4&f=2&xs=1.5,2.5,9",
		"/v1/searchtime?n=5&f=2&x=12&k=2",
	}
	for _, q := range queries {
		req := httptest.NewRequest("GET", q, nil)
		key, _ := routingPolicy(req)
		f.router.mu.RLock()
		primary := f.router.ring.Owner(key)
		b := f.router.backends[primary]
		f.router.mu.RUnlock()

		// Open the primary's breaker and kill its link so only the
		// second owner can answer.
		openBreaker(b, true)
		faultpoint.Arm(fpForward+"."+primary, faultpoint.Rule{})

		before := b.requests.Load()
		code, got := f.get(t, q)
		faultpoint.Reset()
		openBreaker(b, false)

		want, err := http.Get(ref.URL + q)
		if err != nil {
			t.Fatalf("reference GET %s: %v", q, err)
		}
		wantBody, _ := io.ReadAll(want.Body)
		want.Body.Close()
		if code != want.StatusCode {
			t.Fatalf("%s: status %d via second owner, %d direct", q, code, want.StatusCode)
		}
		if !bytes.Equal(got, wantBody) {
			t.Errorf("%s: second owner's body differs from single-process\nrouter: %s\ndirect: %s", q, got, wantBody)
		}
		if n := b.requests.Load() - before; n != 0 {
			t.Errorf("%s: the unavailable primary was tried %d times", q, n)
		}
	}
}

// TestRouterReplicaReadStaysOff proves replicas serve reads only for
// degraded primaries: with every backend healthy, each read of the
// query mix costs exactly one request, to its key's primary owner, and
// no other backend's request counter moves.
func TestRouterReplicaReadStaysOff(t *testing.T) {
	f := newFleet(t, 3, Config{})
	for _, q := range queryMix() {
		req := httptest.NewRequest("GET", q, nil)
		key, _ := routingPolicy(req)
		f.router.mu.RLock()
		primary := f.router.ring.Owner(key)
		before := make(map[string]int64, len(f.router.backends))
		for name, b := range f.router.backends {
			before[name] = b.requests.Load()
		}
		f.router.mu.RUnlock()

		if code, _ := f.get(t, q); code != http.StatusOK {
			t.Fatalf("%s: status %d on a healthy fleet", q, code)
		}
		f.router.mu.RLock()
		for name, b := range f.router.backends {
			want := int64(0)
			if name == primary {
				want = 1
			}
			if n := b.requests.Load() - before[name]; n != want {
				t.Errorf("%s: backend %s got %d requests on a healthy fleet, want %d (primary %s)", q, name, n, want, primary)
			}
		}
		f.router.mu.RUnlock()
	}
}
