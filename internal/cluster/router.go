package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"linesearch/internal/faultpoint"
	"linesearch/internal/service"
	"linesearch/internal/telemetry"
	"linesearch/internal/telemetry/journal"
)

// Fault points in the proxy path. fpForward fires for every attempt;
// a per-backend point named fpForward+"."+<host:port> lets chaos
// schedules kill exactly one shard — the injected error is treated as
// a transport failure, so the retry/failover machinery is exercised
// end to end without real processes dying.
const fpForward = "cluster.forward"

// maxRequestBody bounds a buffered proxied request body; the service
// itself caps batch bodies at 1 MiB, so this is generous.
const maxRequestBody = 8 << 20

// Config tunes the router. The zero value of every field gets a
// sensible default; Backends must name at least one URL.
type Config struct {
	// Backends are the linesearchd base URLs (e.g. http://127.0.0.1:8081).
	Backends []string
	// VNodes is the ring's virtual-node count per backend (default
	// DefaultVNodes).
	VNodes int
	// Attempts bounds the total tries per retryable request, the first
	// included (default 3). Non-idempotent requests always get exactly
	// one attempt: a failed sweep submission must surface, not silently
	// duplicate.
	Attempts int
	// MaxRetryAfter caps how long an honored Retry-After header may
	// cool a backend down (default 5s) — a confused shard must not
	// take itself out for an hour.
	MaxRetryAfter time.Duration
	// RetryBackoff is the base sleep before re-trying the same backend
	// (failover to a different backend is immediate); doubled per
	// attempt (default 25ms).
	RetryBackoff time.Duration
	// BreakerCooldown is how long the per-backend circuit breaker stays
	// open after QuarantineVotes consecutive failures (default 2s).
	BreakerCooldown time.Duration
	// HealthInterval is the probe cadence (default 2s; negative
	// disables the background loop — tests drive ProbeAll directly).
	HealthInterval time.Duration
	// HealthTimeout bounds one probe (default 1s).
	HealthTimeout time.Duration
	// QuarantineVotes is how many consecutive failures — failed health
	// probes and failed proxied attempts alike — open a backend's
	// circuit breaker (default 3): one flaky probe is not a crash.
	QuarantineVotes int
	// SlowThreshold fails the health probe of a backend whose mean
	// proxied latency over a probe window exceeds it (0 disables): the
	// histogram-fed rule that treats a uselessly slow shard as faulty.
	SlowThreshold time.Duration
	// WarmKeys is how many hot plan-cache entries a topology change
	// transfers per donor backend (default 64; negative disables warm
	// transfer).
	WarmKeys int
	// MaxResponseBody caps a buffered backend response (default 32 MiB).
	MaxResponseBody int64
	// Logger receives structured router logs (default slog.Default()).
	Logger *slog.Logger
	// Client performs backend requests (default: 15s timeout).
	Client *http.Client
	// Tracer samples proxied requests into the router's own trace ring
	// (scraped together with the backends' by /debug/fleet-traces).
	// When nil, New creates one tracing every request with telemetry
	// defaults; pass a configured tracer to set the rate and buffer.
	Tracer *telemetry.Tracer
	// Journal records breaker and topology transitions for
	// GET /debug/events. When nil, New creates one with journal
	// defaults.
	Journal *journal.Journal
	// SLOObjective is the fraction of routed requests that must be
	// good — neither a 5xx nor over the latency budget (default 0.99).
	SLOObjective float64
	// SLOLatencyBudget is the per-request latency budget the SLO's
	// slow-rate burn is measured against (default 250ms).
	SLOLatencyBudget time.Duration
}

// Router proxies /v1/* onto a fleet of linesearchd backends placed on
// a consistent-hash ring by plan key. Create with New; safe for
// concurrent use. Close stops the health loop.
type Router struct {
	cfg     Config
	logger  *slog.Logger
	client  *http.Client
	tracer  *telemetry.Tracer
	journal *journal.Journal
	slo     *sloMonitor

	mu       sync.RWMutex
	ring     *Ring
	backends map[string]*backend

	rr atomic.Uint64 // rotation for keyless routes

	proxied    atomic.Int64
	retries    atomic.Int64
	proxyErrs  atomic.Int64
	warmRuns   atomic.Int64
	warmKeys   atomic.Int64
	warmErrors atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a router over cfg.Backends and starts the health loop
// (unless disabled).
func New(cfg Config) (*Router, error) {
	if err := ValidateBackends(cfg.Backends); err != nil {
		return nil, err
	}
	if cfg.Attempts < 1 {
		cfg.Attempts = 3
	}
	if cfg.MaxRetryAfter <= 0 {
		cfg.MaxRetryAfter = 5 * time.Second
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 25 * time.Millisecond
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = time.Second
	}
	if cfg.QuarantineVotes < 1 {
		cfg.QuarantineVotes = 3
	}
	if cfg.WarmKeys == 0 {
		cfg.WarmKeys = 64
	}
	if cfg.MaxResponseBody <= 0 {
		cfg.MaxResponseBody = 32 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 15 * time.Second}
	}
	if cfg.Tracer == nil {
		cfg.Tracer = telemetry.New(telemetry.Config{})
	}
	if cfg.Journal == nil {
		cfg.Journal = journal.New(0)
	}
	r := &Router{
		cfg:      cfg,
		logger:   cfg.Logger,
		client:   cfg.Client,
		tracer:   cfg.Tracer,
		journal:  cfg.Journal,
		slo:      newSLOMonitor(cfg.SLOObjective, cfg.SLOLatencyBudget, nil),
		ring:     NewRing(cfg.VNodes),
		backends: make(map[string]*backend),
		stop:     make(chan struct{}),
	}
	for _, raw := range cfg.Backends {
		b, err := newBackend(raw, cfg.QuarantineVotes, cfg.BreakerCooldown, cfg.Journal)
		if err != nil {
			return nil, err
		}
		if _, dup := r.backends[b.name]; dup {
			return nil, fmt.Errorf("cluster: duplicate backend %s", b.name)
		}
		r.backends[b.name] = b
		r.ring.Add(b.name)
	}
	if cfg.HealthInterval > 0 {
		r.wg.Add(1)
		go r.healthLoop()
	}
	return r, nil
}

// Close stops the health loop. It does not touch in-flight proxying.
func (r *Router) Close() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
}

// Backends returns the sorted backend names currently on the ring.
func (r *Router) Backends() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring.Members()
}

// Handler returns the router's route set: the /v1 proxy (traced and
// SLO-observed), its own health and metrics, the topology admin
// endpoint, and the observability surface — the router's trace ring,
// the fleet-wide stitched view, and the event journal.
func (r *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/", r.handleProxy)
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.HandleFunc("GET /metrics", r.handleMetrics)
	mux.HandleFunc("PUT /admin/topology", r.handleTopology)
	mux.HandleFunc("GET /debug/traces", r.handleDebugTraces)
	mux.HandleFunc("GET /debug/fleet-traces", r.handleFleetTraces)
	mux.Handle("GET /debug/events", journal.Handler(r.journal))
	return mux
}

// handleProxy wraps the proxy walk with the per-request observability:
// a root span (adopting any inbound traceparent, so client-initiated
// traces stitch through the router) and the SLO monitor's view of the
// final client-visible status and latency.
func (r *Router) handleProxy(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	ctx, span := r.tracer.StartRequest(req.Context(), "proxy "+req.URL.Path, req.Header.Get("Traceparent"))
	if span != nil {
		span.SetStr("method", req.Method)
		req = req.WithContext(ctx)
	}
	rec := &sloRecorder{ResponseWriter: w}
	r.proxy(rec, req)
	status := rec.status
	if status == 0 {
		status = http.StatusOK
	}
	span.SetInt("status", int64(status))
	span.End()
	r.slo.observe(status, time.Since(start))
}

// routingPolicy maps a request to its ring key and retry policy. An
// empty key means "any backend" (rotated). Only requests without
// server-side side effects may fail over: a retried GET re-reads, a
// retried batch re-computes, but a retried sweep submission would
// duplicate a job — those get one attempt and a loud error.
func routingPolicy(req *http.Request) (key string, retryable bool) {
	p := req.URL.Path
	switch {
	case strings.HasPrefix(p, "/v1/sweeps"):
		// Sweep jobs are process-local state: pin the whole sweep API to
		// one stable home backend so submit, status and result agree.
		return "sweeps", req.Method == http.MethodGet
	case p == "/v1/batch":
		// A batch names many plan keys; any backend can serve it, and
		// evaluation is pure so the buffered body may be replayed.
		return "", true
	case p == "/v1/cache/snapshot":
		return "", req.Method == http.MethodGet
	default:
		return planKeyFromQuery(req.URL.Query()).Hash(), req.Method == http.MethodGet
	}
}

// planKeyFromQuery mirrors the service's cache-key normalization
// (mindist defaults to 1, model=crash collapses to the default) so
// the router and every backend agree on each request's plan key.
// Unparseable values keep their zero value: the backend will reject
// the request with a 400, and all the router needs is determinism.
func planKeyFromQuery(v url.Values) service.PlanKey {
	k := service.PlanKey{Strategy: v.Get("strategy"), Model: v.Get("model")}
	k.N, _ = strconv.Atoi(v.Get("n"))
	k.F, _ = strconv.Atoi(v.Get("f"))
	k.Votes, _ = strconv.Atoi(v.Get("votes"))
	if md, err := strconv.ParseFloat(v.Get("mindist"), 64); err == nil && md != 0 {
		k.MinDist = md
	} else {
		k.MinDist = 1
	}
	if k.Model == "crash" {
		k.Model = ""
	}
	return k
}

// candidates returns the backends to try for key in preference order:
// the ring's owner walk (or a rotation for keyless routes), available
// backends first. Breaker-open backends stay in the list as a last
// resort — when every shard looks down, trying one
// beats failing without trying.
func (r *Router) candidates(key string) []*backend {
	r.mu.RLock()
	var names []string
	if key == "" {
		names = r.ring.Members()
		if len(names) > 1 {
			off := int(r.rr.Add(1)) % len(names)
			names = append(names[off:], names[:off]...)
		}
	} else {
		names = r.ring.Owners(key, r.ring.Len())
	}
	out := make([]*backend, 0, len(names))
	for _, name := range names {
		if b := r.backends[name]; b != nil {
			out = append(out, b)
		}
	}
	r.mu.RUnlock()

	now := time.Now()
	avail := make([]*backend, 0, len(out))
	rest := make([]*backend, 0, 2)
	for _, b := range out {
		if b.breaker.allow(now) {
			avail = append(avail, b)
		} else {
			rest = append(rest, b)
		}
	}
	return append(avail, rest...)
}

// bufferedResponse is one backend response held in memory so a
// mid-stream failure can still fail over: nothing reaches the client
// until a whole response arrived.
type bufferedResponse struct {
	status int
	header http.Header
	body   []byte
}

// retryableStatus reports whether a backend status should fail over:
// the admission contract's 429/503 plus gateway-style 5xx. Other 4xx
// are the client's problem and 500 is a handler bug that would fail
// identically elsewhere — but injected faults map to 503, so the
// chaos path lands here.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// parseRetryAfter reads a Retry-After header (delta-seconds form),
// capped at max. Unparseable or absent values return 0.
func parseRetryAfter(h string, max time.Duration) time.Duration {
	if h == "" {
		return 0
	}
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs < 0 {
		return 0
	}
	d := time.Duration(secs) * time.Second
	if d > max {
		return max
	}
	return d
}

// errBackendStatus marks an attempt that reached a backend but came
// back with a retryable status; the response is kept for relay when
// every attempt fails the same way.
var errBackendStatus = errors.New("backend returned a retryable status")

// proxy serves one /v1/* request: pick candidates by ring key, walk
// them with the retry budget, relay the first healthy response
// byte-for-byte.
func (r *Router) proxy(w http.ResponseWriter, req *http.Request) {
	r.proxied.Add(1)
	var body []byte
	if req.Body != nil && req.Method != http.MethodGet {
		var err error
		body, err = io.ReadAll(http.MaxBytesReader(w, req.Body, maxRequestBody))
		if err != nil {
			writeJSONError(w, http.StatusBadRequest, "read request body: "+err.Error())
			return
		}
	}
	key, retryable := routingPolicy(req)
	attempts := r.cfg.Attempts
	if !retryable {
		attempts = 1
	}
	cands := r.candidates(key)
	if len(cands) == 0 {
		r.proxyErrs.Add(1)
		writeJSONError(w, http.StatusServiceUnavailable, "no backends configured")
		return
	}

	var lastResp *bufferedResponse
	var lastErr error
	var prev *backend
	for attempt := 0; attempt < attempts; attempt++ {
		b := cands[attempt%len(cands)]
		if attempt > 0 {
			r.retries.Add(1)
			if b == prev {
				// Same backend again (single-shard fleet): give it a
				// moment instead of hammering.
				backoff := r.cfg.RetryBackoff << (attempt - 1)
				select {
				case <-req.Context().Done():
					writeJSONError(w, http.StatusServiceUnavailable, "request cancelled during retry")
					return
				case <-time.After(backoff):
				}
			}
		}
		prev = b
		resp, err := r.forward(req, b, body)
		if err == nil {
			relay(w, resp)
			return
		}
		lastErr = err
		if errors.Is(err, errBackendStatus) {
			lastResp = resp
		}
		r.logger.Debug("proxy attempt failed",
			"backend", b.name, "path", req.URL.Path, "attempt", attempt+1, "err", err)
	}
	r.proxyErrs.Add(1)
	if lastResp != nil {
		// Every shard shed or failed identically: relay the backend's
		// own answer, Retry-After and all, so clients keep the single-
		// process admission contract.
		relay(w, lastResp)
		return
	}
	writeJSONError(w, http.StatusBadGateway,
		fmt.Sprintf("all %d attempt(s) failed: %v", attempts, lastErr))
}

// forward sends one attempt to one backend and buffers the whole
// response. Transport errors and retryable statuses feed the breaker.
// When the request is traced, the attempt gets its own child span and
// the outbound copy carries a traceparent for this trace, so the
// backend's root span stitches under the router's — the cross-process
// propagation half of /debug/fleet-traces.
func (r *Router) forward(req *http.Request, b *backend, body []byte) (*bufferedResponse, error) {
	start := time.Now()
	ctx, span := telemetry.StartSpan(req.Context(), "forward")
	span.SetStr("backend", b.name)
	defer span.End()
	fail := func(err error) (*bufferedResponse, error) {
		span.SetStr("error", err.Error())
		b.failures.Add(1)
		b.breaker.failure(time.Now(), 0)
		return nil, err
	}
	b.requests.Add(1)
	if err := faultpoint.Hit(fpForward); err != nil {
		return fail(err)
	}
	if err := faultpoint.Hit(fpForward + "." + b.name); err != nil {
		return fail(err)
	}

	out := req.Clone(ctx)
	out.RequestURI = ""
	out.URL = &url.URL{
		Scheme:   b.base.Scheme,
		Host:     b.base.Host,
		Path:     req.URL.Path,
		RawQuery: req.URL.RawQuery,
	}
	out.Host = ""
	if body != nil {
		out.Body = io.NopCloser(bytes.NewReader(body))
		out.ContentLength = int64(len(body))
	} else {
		out.Body = http.NoBody
		out.ContentLength = 0
	}
	if host, _, err := net.SplitHostPort(req.RemoteAddr); err == nil {
		out.Header.Set("X-Forwarded-For", host)
	}
	if tp := telemetry.Traceparent(ctx); tp != "" {
		out.Header.Set("Traceparent", tp)
	}

	resp, err := r.client.Do(out)
	if err != nil {
		return fail(err)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, r.cfg.MaxResponseBody))
	resp.Body.Close()
	b.hist.Observe(time.Since(start))
	if err != nil {
		// Died mid-body: the client saw nothing yet, so fail over.
		return fail(fmt.Errorf("read backend response: %w", err))
	}
	span.SetInt("status", int64(resp.StatusCode))
	br := &bufferedResponse{status: resp.StatusCode, header: resp.Header.Clone(), body: data}
	if retryableStatus(resp.StatusCode) {
		b.failures.Add(1)
		b.breaker.failure(time.Now(), parseRetryAfter(resp.Header.Get("Retry-After"), r.cfg.MaxRetryAfter))
		return br, fmt.Errorf("%w: %s from %s", errBackendStatus, resp.Status, b.name)
	}
	// While the slow rule judges b slow, a healthy answer leaves the
	// consecutive count to the probes.
	if !b.slow.Load() {
		b.breaker.success()
	}
	return br, nil
}

// hopByHop are connection-level headers a proxy must not relay.
var hopByHop = []string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

// relay writes a buffered backend response to the client byte-for-byte.
func relay(w http.ResponseWriter, resp *bufferedResponse) {
	h := w.Header()
	for k, vs := range resp.header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	for _, k := range hopByHop {
		h.Del(k)
	}
	h.Set("Content-Length", strconv.Itoa(len(resp.body)))
	w.WriteHeader(resp.status)
	w.Write(resp.body)
}

// writeJSONError emits the service's uniform error payload shape so
// router-originated errors look like backend errors to clients.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
