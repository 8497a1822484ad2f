package service

import (
	"io"
	"sort"

	"linesearch/internal/telemetry"
)

// writePrometheus renders the metrics snapshot as the /metrics text
// exposition. Family order is fixed and label values are sorted, so
// equal snapshots render byte-equal output (golden-tested).
func writePrometheus(w io.Writer, snap Snapshot) error {
	p := telemetry.NewExposition(w)

	p.Family("linesearchd_uptime_seconds", "gauge", "Seconds since the service started.")
	p.Float("linesearchd_uptime_seconds", snap.UptimeSeconds)

	endpoints := make([]string, 0, len(snap.Endpoints))
	for name := range snap.Endpoints {
		endpoints = append(endpoints, name)
	}
	sort.Strings(endpoints)
	p.Family("linesearchd_http_requests_total", "counter", "Requests served, by endpoint and status class.")
	for _, ep := range endpoints {
		p.ByLabel("linesearchd_http_requests_total", "class", snap.Endpoints[ep].Status, "endpoint", ep)
	}
	p.Family("linesearchd_http_request_duration_seconds", "histogram", "Request latency, by endpoint.")
	for _, ep := range endpoints {
		p.Histogram("linesearchd_http_request_duration_seconds", snap.Endpoints[ep].Latency, "endpoint", ep)
	}

	p.Counter("linesearchd_dropped_observations_total", "Metric observations dropped because their endpoint was never registered.", snap.DroppedObservations)

	p.Family("linesearchd_plan_cache_operations_total", "counter", "Plan cache outcomes.")
	p.ByLabel("linesearchd_plan_cache_operations_total", "op", map[string]int64{
		"evictions":      snap.Cache.Evictions,
		"hits":           snap.Cache.Hits,
		"imports":        snap.Cache.Imports,
		"inflight_waits": snap.Cache.InflightWaits,
		"misses":         snap.Cache.Misses,
		"warmed":         snap.Cache.Warmed,
	})
	p.Gauge("linesearchd_plan_cache_size", "Plans currently cached.", int64(snap.Cache.Size))
	p.Gauge("linesearchd_plan_cache_capacity", "Plan cache capacity.", int64(snap.Cache.Capacity))

	sw := snap.Sweeps
	p.Family("linesearchd_sweep_jobs_total", "counter", "Sweep job lifecycle events.")
	p.ByLabel("linesearchd_sweep_jobs_total", "event", map[string]int64{
		"cancelled": sw.Cancelled,
		"completed": sw.Completed,
		"failed":    sw.Failed,
		"resumed":   sw.Resumed,
		"submitted": sw.Submitted,
	})
	p.Family("linesearchd_sweep_cells_total", "counter", "Sweep cell outcomes.")
	p.ByLabel("linesearchd_sweep_cells_total", "outcome", map[string]int64{
		"computed":    sw.CellsComputed,
		"errors":      sw.CellErrors,
		"quarantined": sw.CellsQuarantined,
		"resumed":     sw.CellsResumed,
		"retries":     sw.CellRetries,
	})
	p.Counter("linesearchd_sweep_checkpoint_failures_total", "Failed sweep checkpoint writes.", sw.CheckpointFailures)
	p.Counter("linesearchd_sweep_replicas_recovered_total", "Sweep submits resumed from a replicated checkpoint because the home checkpoint was missing.", sw.ReplicasRecovered)
	p.Gauge("linesearchd_sweep_running_jobs", "Sweep jobs currently executing.", int64(sw.RunningJobs))
	p.Gauge("linesearchd_sweep_pending_jobs", "Sweep jobs waiting for a slot.", int64(sw.PendingJobs))
	if len(sw.CellLatency.Buckets) > 0 {
		p.Family("linesearchd_sweep_cell_latency_seconds", "histogram", "Per-cell sweep evaluation latency.")
		p.Histogram("linesearchd_sweep_cell_latency_seconds", sw.CellLatency)
	}

	p.Family("linesearchd_shed_requests_total", "counter", "Requests shed by per-class admission control.")
	p.ByLabel("linesearchd_shed_requests_total", "class", snap.Resilience.Shed)
	p.Family("linesearchd_inflight_requests", "gauge", "In-flight requests per admission class.")
	p.ByLabel("linesearchd_inflight_requests", "class", snap.Resilience.Inflight)
	p.Gauge("linesearchd_fault_points_armed", "Fault points currently armed in this process.", int64(snap.Resilience.FaultPointsArmed))
	p.Counter("linesearchd_faults_injected_total", "Faults injected by armed fault points.", snap.Resilience.FaultsInjected)

	p.Tracer("linesearchd", snap.Traces)
	p.Journal("linesearchd", snap.JournalEvents)

	rt := snap.Runtime
	p.Gauge("linesearchd_goroutines", "Live goroutines.", int64(rt.Goroutines))
	p.Gauge("linesearchd_gomaxprocs", "GOMAXPROCS.", int64(rt.GOMAXPROCS))
	p.Gauge("linesearchd_heap_alloc_bytes", "Bytes of live heap objects.", int64(rt.HeapAllocBytes))
	p.Gauge("linesearchd_heap_sys_bytes", "Heap bytes obtained from the OS.", int64(rt.HeapSysBytes))
	p.Gauge("linesearchd_heap_objects", "Live heap objects.", int64(rt.HeapObjects))
	p.Counter("linesearchd_alloc_bytes_total", "Cumulative bytes allocated.", int64(rt.TotalAllocBytes))
	p.Counter("linesearchd_gc_runs_total", "Completed GC cycles.", int64(rt.GCRuns))
	p.Family("linesearchd_gc_pause_seconds_total", "counter", "Cumulative GC stop-the-world pause.")
	p.Float("linesearchd_gc_pause_seconds_total", rt.GCPauseTotalSeconds)
	p.Family("linesearchd_gc_last_pause_seconds", "gauge", "Most recent GC pause.")
	p.Float("linesearchd_gc_last_pause_seconds", rt.LastGCPauseSeconds)

	return p.Err()
}
