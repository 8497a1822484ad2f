package service

import (
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"linesearch/internal/sweep"
	"linesearch/internal/telemetry"
)

// endpointMetrics aggregates one endpoint's counters: requests by
// status class and a latency histogram. Everything is atomic, so the
// hot path never takes a lock or allocates.
type endpointMetrics struct {
	status2x atomic.Int64
	status4x atomic.Int64
	status5x atomic.Int64
	latency  *telemetry.Histogram
}

// observe records one finished request.
func (m *endpointMetrics) observe(status int, d time.Duration) {
	switch {
	case status >= 500:
		m.status5x.Add(1)
	case status >= 400:
		m.status4x.Add(1)
	default:
		m.status2x.Add(1)
	}
	m.latency.Observe(d)
}

// Metrics is the service-wide registry. Endpoints are registered at
// construction, so the serving path only touches atomics.
type Metrics struct {
	start     time.Time
	endpoints map[string]*endpointMetrics

	dropped  atomic.Int64
	warnOnce sync.Once
	logger   *slog.Logger
}

// NewMetrics returns a registry with the given endpoint names
// pre-registered.
func NewMetrics(endpoints ...string) *Metrics {
	m := &Metrics{start: time.Now(), endpoints: make(map[string]*endpointMetrics, len(endpoints))}
	for _, e := range endpoints {
		m.endpoints[e] = &endpointMetrics{latency: telemetry.NewHistogram()}
	}
	return m
}

// SetLogger wires the logger used for misregistration warnings. Call
// before serving; nil leaves dropped observations counted but silent.
func (m *Metrics) SetLogger(l *slog.Logger) { m.logger = l }

// Observe records a finished request against a registered endpoint.
// Observations for unknown endpoints are dropped — a misregistration,
// not worth a panic on the serving path — but counted as
// linesearchd_dropped_observations_total and warned about once, so the
// mistake is visible instead of invisible.
func (m *Metrics) Observe(endpoint string, status int, d time.Duration) {
	em, ok := m.endpoints[endpoint]
	if !ok {
		m.dropped.Add(1)
		if m.logger != nil {
			m.warnOnce.Do(func() {
				m.logger.Warn("metrics observation dropped for unregistered endpoint"+
					" (further drops are counted, not logged)", "endpoint", endpoint)
			})
		}
		return
	}
	em.observe(status, d)
}

// EndpointSnapshot is the exported per-endpoint state: requests by
// status class ("2xx", "4xx", "5xx") and the latency histogram, whose
// Count is the endpoint's request total.
type EndpointSnapshot struct {
	Status  map[string]int64
	Latency telemetry.HistogramSnapshot
}

// ResilienceStats groups the admission-control and fault-injection
// counters: requests shed per class (429s), current in-flight gauges,
// and the fault-point registry state (nonzero armed means someone is
// deliberately injecting faults into this process).
type ResilienceStats struct {
	Shed             map[string]int64
	Inflight         map[string]int64
	FaultPointsArmed int
	FaultsInjected   int64
}

// RuntimeStats are expvar-style process statistics: cheap point-in-
// time reads of the scheduler and the memory subsystem, enough to see
// a leak, a GC storm or goroutine pileup from /metrics alone.
type RuntimeStats struct {
	Goroutines          int
	GOMAXPROCS          int
	HeapAllocBytes      uint64
	HeapSysBytes        uint64
	HeapObjects         uint64
	TotalAllocBytes     uint64
	GCRuns              uint32
	GCPauseTotalSeconds float64
	LastGCPauseSeconds  float64
}

// collectRuntime reads the process stats. ReadMemStats is a
// stop-the-world on the order of tens of microseconds — fine at
// metrics-scrape cadence, not for per-request paths.
func collectRuntime() RuntimeStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rs := RuntimeStats{
		Goroutines:          runtime.NumGoroutine(),
		GOMAXPROCS:          runtime.GOMAXPROCS(0),
		HeapAllocBytes:      ms.HeapAlloc,
		HeapSysBytes:        ms.HeapSys,
		HeapObjects:         ms.HeapObjects,
		TotalAllocBytes:     ms.TotalAlloc,
		GCRuns:              ms.NumGC,
		GCPauseTotalSeconds: float64(ms.PauseTotalNs) / 1e9,
	}
	if ms.NumGC > 0 {
		rs.LastGCPauseSeconds = float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9
	}
	return rs
}

// Snapshot is everything /metrics exposes; writePrometheus renders it.
type Snapshot struct {
	UptimeSeconds float64
	Endpoints     map[string]EndpointSnapshot
	Cache         CacheStats
	// Sweeps carries the background job-engine counters and in-flight
	// gauges (see sweep.ManagerStats).
	Sweeps sweep.ManagerStats
	// Resilience carries the shed/fault counters (see ResilienceStats).
	Resilience ResilienceStats
	// DroppedObservations counts Observe calls for endpoints nobody
	// registered (a wiring bug that used to be silent).
	DroppedObservations int64
	// Runtime carries the expvar-style process stats.
	Runtime RuntimeStats
	// Traces carries the request-tracer counters (see
	// telemetry.TracerStats).
	Traces telemetry.TracerStats
	// JournalEvents counts structured journal events per kind. Every
	// kind is present (zero or not), so the exposition carries a
	// counter per kind by construction.
	JournalEvents map[string]int64
}

// Snapshot exports every counter.
func (m *Metrics) Snapshot(cache CacheStats, sweeps sweep.ManagerStats, res ResilienceStats) Snapshot {
	out := Snapshot{
		UptimeSeconds:       time.Since(m.start).Seconds(),
		Endpoints:           make(map[string]EndpointSnapshot, len(m.endpoints)),
		Cache:               cache,
		Sweeps:              sweeps,
		Resilience:          res,
		DroppedObservations: m.dropped.Load(),
		Runtime:             collectRuntime(),
	}
	for name, em := range m.endpoints {
		out.Endpoints[name] = EndpointSnapshot{
			Status: map[string]int64{
				"2xx": em.status2x.Load(),
				"4xx": em.status4x.Load(),
				"5xx": em.status5x.Load(),
			},
			Latency: em.latency.Snapshot(),
		}
	}
	return out
}
