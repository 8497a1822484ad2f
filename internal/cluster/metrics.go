package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"time"

	"linesearch/internal/telemetry"
)

// BackendStats is one backend's view in the router's metrics snapshot.
type BackendStats struct {
	Name        string
	Available   bool
	Quarantined bool
	BreakerOpen bool
	Requests    int64
	Failures    int64
	ProbeFails  int64
	Quarantines int64
	Latency     telemetry.HistogramSnapshot
}

// Stats is the router's metrics snapshot; writePrometheus renders it
// for GET /metrics.
type Stats struct {
	Backends []BackendStats
	Proxied  int64
	Retries  int64
	// ReplicaReads counts pure reads fanned out to the key's owner
	// pair because the primary was unavailable.
	ReplicaReads int64
	ProxyErrors  int64
	WarmRuns     int64
	WarmKeys     int64
	WarmErrors   int64
	// SLO is the multi-window burn-rate reading over routed requests.
	SLO SLOStats
	// JournalEvents counts recorded events per kind — every kind is
	// present, zero or not, so the exposition carries a counter per
	// kind by construction.
	JournalEvents map[string]int64
	// Tracer is the router's own trace-ring health (sampling, drops,
	// truncation).
	Tracer telemetry.TracerStats
}

// Stats snapshots the router.
func (r *Router) Stats() Stats {
	r.mu.RLock()
	backends := make([]*backend, 0, len(r.backends))
	for _, b := range r.backends {
		backends = append(backends, b)
	}
	r.mu.RUnlock()
	sort.Slice(backends, func(i, j int) bool { return backends[i].name < backends[j].name })
	now := time.Now()
	st := Stats{
		Backends:      make([]BackendStats, 0, len(backends)),
		Proxied:       r.proxied.Load(),
		Retries:       r.retries.Load(),
		ReplicaReads:  r.replicaReads.Load(),
		ProxyErrors:   r.proxyErrs.Load(),
		WarmRuns:      r.warmRuns.Load(),
		WarmKeys:      r.warmKeys.Load(),
		WarmErrors:    r.warmErrors.Load(),
		SLO:           r.slo.snapshot(),
		JournalEvents: r.journal.Counts(),
		Tracer:        r.tracer.Stats(),
	}
	for _, b := range backends {
		st.Backends = append(st.Backends, BackendStats{
			Name:        b.name,
			Available:   b.available(now),
			Quarantined: b.down.Load(),
			BreakerOpen: b.breaker.open(now),
			Requests:    b.requests.Load(),
			Failures:    b.failures.Load(),
			ProbeFails:  b.probeFails.Load(),
			Quarantines: b.quarantines.Load(),
			Latency:     b.hist.Snapshot(),
		})
	}
	return st
}

// handleHealthz reports router liveness plus the fleet's availability:
// 200 while at least one backend is available, 503 when none is — a
// load balancer in front of several routers needs that distinction.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	st := r.Stats()
	avail := 0
	for _, b := range st.Backends {
		if b.Available {
			avail++
		}
	}
	status := http.StatusOK
	if avail == 0 {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{
		"status":             http.StatusText(status),
		"backends":           len(st.Backends),
		"backends_available": avail,
		"slo":                st.SLO,
	})
}

// handleMetrics serves the router snapshot in the Prometheus text
// exposition format, whatever the request's Accept header or query.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", telemetry.ExpositionContentType)
	writePrometheus(w, r.Stats())
}

// topologyRequest is the PUT /admin/topology payload.
type topologyRequest struct {
	Backends []string `json:"backends"`
}

// handleTopology serves PUT /admin/topology: replace the backend set
// and warm-transfer hot plan-cache entries to their new owners.
func (r *Router) handleTopology(w http.ResponseWriter, req *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 1<<20))
	if err != nil {
		writeJSONError(w, http.StatusBadRequest, "read topology body: "+err.Error())
		return
	}
	var tr topologyRequest
	if err := json.Unmarshal(body, &tr); err != nil {
		writeJSONError(w, http.StatusBadRequest, "decode topology: "+err.Error())
		return
	}
	if err := r.SetTopology(tr.Backends); err != nil {
		writeJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"backends": r.Backends()})
}

// writePrometheus renders the router snapshot as the /metrics text
// exposition with linerouter_* families. Family order is fixed and
// backends come sorted from Stats, so equal snapshots render byte-equal
// output (golden-tested).
func writePrometheus(w io.Writer, st Stats) error {
	p := telemetry.NewExposition(w)

	p.Counter("linerouter_proxied_requests_total", "Client requests entering the proxy.", st.Proxied)
	p.Counter("linerouter_retries_total", "Extra proxy attempts beyond the first.", st.Retries)
	p.Counter("linerouter_replica_fanout_reads_total", "Pure reads fanned out to the owner pair because the primary was unavailable.", st.ReplicaReads)
	p.Counter("linerouter_proxy_errors_total", "Requests that exhausted every attempt.", st.ProxyErrors)
	p.Counter("linerouter_warm_transfer_runs_total", "Warm-transfer rounds triggered by topology changes.", st.WarmRuns)
	p.Counter("linerouter_warm_transfer_keys_total", "Plan-cache entries moved by warm transfers.", st.WarmKeys)
	p.Counter("linerouter_warm_transfer_errors_total", "Warm-transfer export or import failures.", st.WarmErrors)

	p.Family("linerouter_slo_objective", "gauge", "Fraction of routed requests that must be good.")
	p.Float("linerouter_slo_objective", st.SLO.Objective)
	p.Family("linerouter_slo_latency_budget_seconds", "gauge", "Per-request latency budget the slow-rate burn is measured against.")
	p.Float("linerouter_slo_latency_budget_seconds", st.SLO.LatencyBudgetSeconds)
	p.Family("linerouter_slo_window_requests", "gauge", "Routed requests observed in each burn window.")
	for _, win := range st.SLO.Windows {
		p.Int("linerouter_slo_window_requests", win.Requests, "window", win.Window)
	}
	p.Family("linerouter_slo_error_burn_rate", "gauge", "Error-budget burn rate per window (1.0 = burning exactly at the allowed rate).")
	for _, win := range st.SLO.Windows {
		p.Float("linerouter_slo_error_burn_rate", win.ErrorBurnRate, "window", win.Window)
	}
	p.Family("linerouter_slo_latency_burn_rate", "gauge", "Latency-budget burn rate per window.")
	for _, win := range st.SLO.Windows {
		p.Float("linerouter_slo_latency_burn_rate", win.LatencyBurnRate, "window", win.Window)
	}

	p.Journal("linerouter", st.JournalEvents)
	p.Tracer("linerouter", st.Tracer)
	p.Counter("linerouter_tracer_dropped_traces_total", "Completed traces evicted from the ring before being read.", st.Tracer.Evicted)
	p.Counter("linerouter_tracer_truncated_traces_total", "Traces that completed with at least one span refused by the per-trace cap.", st.Tracer.TruncatedTraces)

	perBackend := func(name, typ, help string, value func(BackendStats) int64) {
		p.Family(name, typ, help)
		for _, b := range st.Backends {
			p.Int(name, value(b), "backend", b.Name)
		}
	}
	perBackend("linerouter_backend_up", "gauge", "Backend availability (1 = routable).",
		func(b BackendStats) int64 { return boolGauge(b.Available) })
	perBackend("linerouter_backend_requests_total", "counter", "Attempts forwarded, by backend.",
		func(b BackendStats) int64 { return b.Requests })
	perBackend("linerouter_backend_failures_total", "counter", "Failed attempts, by backend.",
		func(b BackendStats) int64 { return b.Failures })
	perBackend("linerouter_backend_quarantines_total", "counter", "Health-vote quarantine transitions, by backend.",
		func(b BackendStats) int64 { return b.Quarantines })
	perBackend("linerouter_backend_quarantined", "gauge", "Backend currently quarantined by failed health votes (1 = quarantined).",
		func(b BackendStats) int64 { return boolGauge(b.Quarantined) })
	perBackend("linerouter_backend_breaker_open", "gauge", "Backend circuit breaker open (1 = open).",
		func(b BackendStats) int64 { return boolGauge(b.BreakerOpen) })
	perBackend("linerouter_backend_probe_failures_total", "counter", "Failed health probes, by backend.",
		func(b BackendStats) int64 { return b.ProbeFails })
	p.Family("linerouter_backend_request_duration_seconds", "histogram", "Proxied request latency, by backend.")
	for _, b := range st.Backends {
		p.Histogram("linerouter_backend_request_duration_seconds", b.Latency, "backend", b.Name)
	}
	return p.Err()
}

func boolGauge(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
