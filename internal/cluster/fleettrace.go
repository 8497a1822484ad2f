package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"time"

	"linesearch/internal/telemetry"
	"linesearch/internal/telemetry/journal"
)

// routerProcess is the hop label for spans recorded by the router's
// own tracer in a stitched fleet trace.
const routerProcess = "router"

// debugTracesResponse mirrors the service's /debug/traces shape, so
// one scraper (human or the fleet stitcher) reads routers and backends
// identically.
type debugTracesResponse struct {
	Count  int                       `json:"count"`
	Sort   string                    `json:"sort"`
	Traces []telemetry.TraceSnapshot `json:"traces"`
}

// handleDebugTraces serves the router's own completed-trace ring,
// byte-compatible with the backends' endpoint.
//
//	GET /debug/traces?n=20&sort=recent    the n most recent traces
//	GET /debug/traces?n=20&sort=slowest   the n slowest traces
func (r *Router) handleDebugTraces(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	n := 20
	if raw := q.Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeJSONError(w, http.StatusBadRequest, "parameter n must be a positive integer")
			return
		}
		n = v
	}
	order := q.Get("sort")
	if order == "" {
		order = "recent"
	}
	traces := r.tracer.Traces()
	total := len(traces)
	switch order {
	case "recent":
		sort.Slice(traces, func(i, j int) bool { return traces[i].Start.After(traces[j].Start) })
	case "slowest":
		sort.Slice(traces, func(i, j int) bool {
			if traces[i].DurationSeconds != traces[j].DurationSeconds {
				return traces[i].DurationSeconds > traces[j].DurationSeconds
			}
			return traces[i].Start.After(traces[j].Start)
		})
	default:
		writeJSONError(w, http.StatusBadRequest, `parameter sort must be "recent" or "slowest"`)
		return
	}
	if len(traces) > n {
		traces = traces[:n]
	}
	if traces == nil {
		traces = []telemetry.TraceSnapshot{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(debugTracesResponse{Count: total, Sort: order, Traces: traces})
}

// FleetHop is one process's view of a stitched trace: the router or
// one backend, with that process's local trace tree.
type FleetHop struct {
	Process         string                  `json:"process"`
	DurationSeconds float64                 `json:"duration_seconds"`
	SpanCount       int                     `json:"span_count"`
	Trace           telemetry.TraceSnapshot `json:"trace"`
}

// FleetTrace is one trace id's hops merged across the fleet. Hops are
// ordered router-first, then backends by name, so the tree reads in
// request direction. SlowestHop names the backend hop with the largest
// local duration — where the wall-clock went — falling back to the
// router when the trace never left it.
type FleetTrace struct {
	TraceID           string     `json:"trace_id"`
	Start             time.Time  `json:"start"`
	DurationSeconds   float64    `json:"duration_seconds"`
	Processes         int        `json:"processes"`
	SlowestHop        string     `json:"slowest_hop"`
	SlowestHopSeconds float64    `json:"slowest_hop_seconds"`
	Hops              []FleetHop `json:"hops"`
}

// fleetTracesResponse answers GET /debug/fleet-traces.
type fleetTracesResponse struct {
	// Count is the number of distinct trace ids seen across the fleet
	// (before the n cut).
	Count int `json:"count"`
	// Scraped lists the backends whose rings were merged; Errors maps a
	// backend that could not be scraped to the reason (a dead shard must
	// not make the debugging endpoint itself fail).
	Scraped []string          `json:"scraped"`
	Errors  map[string]string `json:"errors,omitempty"`
	Traces  []FleetTrace      `json:"traces"`
}

// handleFleetTraces scrapes every backend's /debug/traces ring, merges
// it with the router's own, and groups spans by trace id: the stitched
// cross-process view. One traced request shows up as a router hop (the
// proxy root with its forward legs) plus one hop per backend the
// traceparent reached.
//
//	GET /debug/fleet-traces?n=20            the n most recent stitched traces
//	GET /debug/fleet-traces?trace=<id>      one trace id, searched in every process's whole ring
//	GET /debug/fleet-traces?scrape_n=64     per-process ring depth to fetch (without trace)
func (r *Router) handleFleetTraces(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	n := 20
	if raw := q.Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeJSONError(w, http.StatusBadRequest, "parameter n must be a positive integer")
			return
		}
		n = v
	}
	scrapeN := 64
	if raw := q.Get("scrape_n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeJSONError(w, http.StatusBadRequest, "parameter scrape_n must be a positive integer")
			return
		}
		scrapeN = v
	}
	wantID := q.Get("trace")
	if wantID != "" {
		// A lookup by id reads each ring whole: the hops of an old
		// trace lie beyond any window of recent ones.
		scrapeN = math.MaxInt32
	}

	r.mu.RLock()
	backends := make([]*backend, 0, len(r.backends))
	for _, b := range r.backends {
		backends = append(backends, b)
	}
	r.mu.RUnlock()
	sort.Slice(backends, func(i, j int) bool { return backends[i].name < backends[j].name })

	type scraped struct {
		process string
		traces  []telemetry.TraceSnapshot
		err     error
	}
	results := make([]scraped, len(backends))
	done := make(chan int, len(backends))
	for i, b := range backends {
		i, b := i, b
		go func() {
			traces, err := r.scrapeTraces(req, b, scrapeN)
			results[i] = scraped{process: b.name, traces: traces, err: err}
			done <- i
		}()
	}
	for range backends {
		<-done
	}

	resp := fleetTracesResponse{Scraped: make([]string, 0, len(backends))}
	byID := make(map[string]*FleetTrace)
	add := func(process string, traces []telemetry.TraceSnapshot) {
		for _, tr := range traces {
			if wantID != "" && tr.TraceID != wantID {
				continue
			}
			ft, ok := byID[tr.TraceID]
			if !ok {
				ft = &FleetTrace{TraceID: tr.TraceID, Start: tr.Start}
				byID[tr.TraceID] = ft
			}
			if tr.Start.Before(ft.Start) {
				ft.Start = tr.Start
			}
			ft.Hops = append(ft.Hops, FleetHop{
				Process:         process,
				DurationSeconds: tr.DurationSeconds,
				SpanCount:       tr.SpanCount,
				Trace:           tr,
			})
		}
	}
	// The router's ring first: its hop sorts to the front of every
	// stitched trace, and its root span bounds the whole request.
	add(routerProcess, r.tracer.Traces())
	for _, res := range results {
		if res.err != nil {
			if resp.Errors == nil {
				resp.Errors = make(map[string]string)
			}
			resp.Errors[res.process] = res.err.Error()
			continue
		}
		resp.Scraped = append(resp.Scraped, res.process)
		add(res.process, res.traces)
	}

	merged := make([]FleetTrace, 0, len(byID))
	for _, ft := range byID {
		sort.Slice(ft.Hops, func(i, j int) bool {
			hi, hj := ft.Hops[i], ft.Hops[j]
			if (hi.Process == routerProcess) != (hj.Process == routerProcess) {
				return hi.Process == routerProcess
			}
			return hi.Process < hj.Process
		})
		ft.Processes = len(ft.Hops)
		for _, hop := range ft.Hops {
			if hop.DurationSeconds > ft.DurationSeconds {
				ft.DurationSeconds = hop.DurationSeconds
			}
			if hop.Process == routerProcess {
				continue
			}
			if hop.DurationSeconds > ft.SlowestHopSeconds || ft.SlowestHop == "" {
				ft.SlowestHop = hop.Process
				ft.SlowestHopSeconds = hop.DurationSeconds
			}
		}
		if ft.SlowestHop == "" {
			// The trace never left the router (every attempt failed
			// before a backend sampled it, or the request was answered
			// locally): the router is the slowest — and only — hop.
			ft.SlowestHop = routerProcess
			ft.SlowestHopSeconds = ft.Hops[0].DurationSeconds
		}
		merged = append(merged, *ft)
	}
	sort.Slice(merged, func(i, j int) bool {
		if !merged[i].Start.Equal(merged[j].Start) {
			return merged[i].Start.After(merged[j].Start)
		}
		return merged[i].TraceID < merged[j].TraceID
	})
	resp.Count = len(merged)
	if len(merged) > n {
		merged = merged[:n]
	}
	resp.Traces = merged
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// scrapeTraces fetches one backend's recent completed traces.
func (r *Router) scrapeTraces(req *http.Request, b *backend, n int) ([]telemetry.TraceSnapshot, error) {
	url := fmt.Sprintf("%s/debug/traces?n=%d&sort=recent", b.base, n)
	out, err := http.NewRequestWithContext(req.Context(), http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := r.client.Do(out)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("scrape returned %s", resp.Status)
	}
	var body debugTracesResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, r.cfg.MaxResponseBody)).Decode(&body); err != nil {
		return nil, fmt.Errorf("decode scrape: %w", err)
	}
	return body.Traces, nil
}

// DebugHandler returns the router's operator debug surface for a
// separate loopback-only listener (linerouter's -debug-addr flag):
// net/http/pprof, the router's own trace ring, the stitched fleet
// view, the event journal, and the metrics/health endpoints. Never
// part of Handler() on the serving port — profiling endpoints can
// stall the process.
func (r *Router) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/traces", r.handleDebugTraces)
	mux.HandleFunc("/debug/fleet-traces", r.handleFleetTraces)
	mux.Handle("/debug/events", journal.Handler(r.journal))
	mux.HandleFunc("/metrics", r.handleMetrics)
	mux.HandleFunc("/healthz", r.handleHealthz)
	return mux
}
