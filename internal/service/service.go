// Package service implements linesearchd's HTTP serving layer: JSON
// endpoints over the public linesearch API, backed by a concurrency-safe
// LRU cache of constructed plans with in-flight deduplication, a bounded
// worker pool for batch evaluation, and built-in observability
// (per-endpoint request counters, latency histograms and cache counters
// on /metrics, structured access logs, request timeouts).
//
// Endpoints:
//
//	GET  /v1/plan?n=&f=[&strategy=&mindist=&horizon=]   plan parameters, CR, bounds, turning points
//	GET  /v1/searchtime?n=&f=&x=[&k=&strategy=&mindist=] worst-case (or k-th-visitor) detection time
//	GET  /v1/timeline?n=&f=&x=[&faulty=&tmax=...]       event log of one search
//	GET  /v1/lowerbound?n=&f=                           pair-level closed-form bounds
//	POST /v1/batch                                      many queries in one request
//	POST   /v1/sweeps                                   submit a background parameter sweep
//	GET    /v1/sweeps                                   list sweep jobs
//	GET    /v1/sweeps/{id}                              job status and progress
//	GET    /v1/sweeps/{id}/result                       finished job's dataset
//	DELETE /v1/sweeps/{id}                              cancel a job
//	GET  /v1/cache/snapshot                             export hot plan-cache entries (warm transfer)
//	PUT  /v1/cache/snapshot                             import a snapshot, prewarming the cache
//	GET  /healthz                                       liveness probe
//	GET  /metrics                                       Prometheus text exposition
//
// Everything query-derived that the library rejects maps to a 400; the
// construction of a Searcher (strategy selection, schedule synthesis,
// plan building) is the expensive step and is cached per
// (n, f, strategy, mindist) tuple.
package service

import (
	"log/slog"
	"net/http"
	"runtime"
	"time"

	"linesearch/internal/sweep"
	"linesearch/internal/telemetry"
	"linesearch/internal/telemetry/journal"
)

// Config tunes the service. The zero value gets sensible defaults.
type Config struct {
	// CacheSize is the number of constructed plans kept in the LRU
	// (default 128).
	CacheSize int
	// BatchWorkers bounds the concurrency of one batch request
	// (default GOMAXPROCS).
	BatchWorkers int
	// MaxBatch is the largest accepted batch (default 1024).
	MaxBatch int
	// RequestTimeout is the per-request wall-clock budget (default
	// 15s; negative disables the timeout handler).
	RequestTimeout time.Duration
	// MaxInflightQuery bounds the concurrent in-flight GET evaluation
	// requests (default 256; negative means unlimited). Requests beyond
	// the bound are shed with a 429 and Retry-After.
	MaxInflightQuery int
	// MaxInflightBatch bounds the concurrent in-flight batch requests
	// (default 8; negative means unlimited).
	MaxInflightBatch int
	// MaxInflightSweeps bounds the concurrent in-flight sweep API
	// requests (default 16; negative means unlimited).
	MaxInflightSweeps int
	// MaxInflightCache bounds the concurrent in-flight cache snapshot
	// export/import requests (default 4; negative means unlimited) —
	// an import builds plans, so a storm of them must not starve the
	// serving path.
	MaxInflightCache int
	// SnapshotDir is where rejected cache-snapshot imports are
	// quarantined for the operator, mirroring the sweep checkpoint
	// .corrupt convention. Empty disables persistence (imports are
	// still rejected, just not kept).
	SnapshotDir string
	// Logger receives structured access and error logs (default
	// slog.Default()). New wraps its handler with telemetry trace-ID
	// attribution, so sampled requests' log lines carry trace_id.
	Logger *slog.Logger
	// Tracer samples requests into /debug/traces. When nil, New creates
	// one that traces every request with telemetry defaults; pass an
	// explicitly configured tracer to set the sampling rate and buffer.
	Tracer *telemetry.Tracer
	// Journal is the structured event ring served by /debug/events.
	// When nil, New creates one with journal defaults; pass the
	// process-wide journal so membership and sweep events land in the
	// same ring the service exposes.
	Journal *journal.Journal
	// Build overrides plan construction (tests only).
	Build BuildFunc
	// Sweeps is the background sweep-job manager. When nil, New creates
	// one with sweep defaults (checkpoints and datasets under
	// "data/sweeps"); nothing touches the disk until the first
	// submission.
	Sweeps *sweep.Manager
	// Replicas holds sweep checkpoints replicated from other fleet
	// members. Nil disables the /v1/replica surface (single-node
	// deployments); linesearchd wires one when started with a replica
	// directory.
	Replicas *sweep.ReplicaStore
}

// Service is the linesearchd request handler set. Create with New;
// safe for concurrent use.
type Service struct {
	cfg      Config
	cache    *PlanCache
	metrics  *Metrics
	logger   *slog.Logger
	tracer   *telemetry.Tracer
	journal  *journal.Journal
	sweeps   *sweep.Manager
	limiters map[string]*classLimiter
}

// endpointNames are the metric keys, one per route. PR 3 wired the
// /v1/searchtimes route but never registered it here, so its
// observations were silently dropped — the exact misregistration the
// dropped_observations counter now makes visible.
var endpointNames = []string{
	"/v1/plan", "/v1/searchtime", "/v1/searchtimes", "/v1/timeline", "/v1/lowerbound",
	"/v1/batch", "/v1/sweeps", "/v1/sweeps/{id}", "/v1/sweeps/{id}/result",
	"/v1/cache/snapshot",
	"/v1/replica/checkpoints/{id}", "/v1/replica/digest",
	"/healthz", "/metrics", "/debug/traces", "/debug/events",
}

// New builds a Service from cfg, applying defaults for zero fields.
func New(cfg Config) *Service {
	if cfg.CacheSize == 0 {
		cfg.CacheSize = 128
	}
	if cfg.BatchWorkers <= 0 {
		cfg.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1024
	}
	if cfg.RequestTimeout == 0 {
		cfg.RequestTimeout = 15 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	// Trace-ID attribution on every log line that carries a request
	// context, regardless of how the caller built the logger.
	cfg.Logger = slog.New(telemetry.WrapHandler(cfg.Logger.Handler()))
	if cfg.Tracer == nil {
		cfg.Tracer = telemetry.New(telemetry.Config{})
	}
	if cfg.Journal == nil {
		cfg.Journal = journal.New(0)
	}
	if cfg.Sweeps == nil {
		cfg.Sweeps = sweep.NewManager(sweep.Config{Logger: cfg.Logger, Tracer: cfg.Tracer, Journal: cfg.Journal})
	}
	if cfg.MaxInflightQuery == 0 {
		cfg.MaxInflightQuery = 256
	}
	if cfg.MaxInflightBatch == 0 {
		cfg.MaxInflightBatch = 8
	}
	if cfg.MaxInflightSweeps == 0 {
		cfg.MaxInflightSweeps = 16
	}
	if cfg.MaxInflightCache == 0 {
		cfg.MaxInflightCache = 4
	}
	s := &Service{
		cfg:     cfg,
		cache:   NewPlanCache(cfg.CacheSize, cfg.Build),
		metrics: NewMetrics(endpointNames...),
		logger:  cfg.Logger,
		tracer:  cfg.Tracer,
		journal: cfg.Journal,
		sweeps:  cfg.Sweeps,
		limiters: map[string]*classLimiter{
			classQuery:  newClassLimiter(classQuery, cfg.MaxInflightQuery),
			classBatch:  newClassLimiter(classBatch, cfg.MaxInflightBatch),
			classSweeps: newClassLimiter(classSweeps, cfg.MaxInflightSweeps),
			classCache:  newClassLimiter(classCache, cfg.MaxInflightCache),
		},
	}
	s.metrics.SetLogger(cfg.Logger)
	return s
}

// Tracer exposes the request tracer (for the debug surface and tests).
func (s *Service) Tracer() *telemetry.Tracer { return s.tracer }

// Journal exposes the structured event journal (for the debug surface
// and process wiring).
func (s *Service) Journal() *journal.Journal { return s.journal }

// Cache exposes the plan cache (stats are also on /metrics).
func (s *Service) Cache() *PlanCache { return s.cache }

// Sweeps exposes the sweep-job manager (for shutdown and tests).
func (s *Service) Sweeps() *sweep.Manager { return s.sweeps }

// Close shuts the background job engine down: running sweeps are
// cancelled cooperatively and checkpointed so a restarted daemon
// resumes them.
func (s *Service) Close() { s.sweeps.Close() }

// Handler returns the full route set wired with metrics, access
// logging, panic recovery, per-class admission control and the request
// timeout. healthz and metrics bypass admission so an overloaded
// daemon still answers probes.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	query := func(name, op string) http.Handler {
		return s.instrument(name, s.admit(classQuery, s.handleQuery(op)))
	}
	sweeps := func(name string, h http.HandlerFunc) http.Handler {
		return s.instrument(name, s.admit(classSweeps, h))
	}
	mux.Handle("GET /v1/plan", query("/v1/plan", OpPlan))
	mux.Handle("GET /v1/searchtime", query("/v1/searchtime", OpSearchTime))
	mux.Handle("GET /v1/searchtimes", query("/v1/searchtimes", OpSearchTimes))
	mux.Handle("GET /v1/timeline", query("/v1/timeline", OpTimeline))
	mux.Handle("GET /v1/lowerbound", query("/v1/lowerbound", OpLowerBound))
	mux.Handle("POST /v1/batch", s.instrument("/v1/batch", s.admit(classBatch, http.HandlerFunc(s.handleBatch))))
	mux.Handle("POST /v1/sweeps", sweeps("/v1/sweeps", s.handleSweepSubmit))
	mux.Handle("GET /v1/sweeps", sweeps("/v1/sweeps", s.handleSweepList))
	mux.Handle("GET /v1/sweeps/{id}", sweeps("/v1/sweeps/{id}", s.handleSweepStatus))
	mux.Handle("GET /v1/sweeps/{id}/result", sweeps("/v1/sweeps/{id}/result", s.handleSweepResult))
	mux.Handle("DELETE /v1/sweeps/{id}", sweeps("/v1/sweeps/{id}", s.handleSweepCancel))
	mux.Handle("GET /v1/cache/snapshot", s.instrument("/v1/cache/snapshot", s.admit(classCache, http.HandlerFunc(s.handleCacheExport))))
	mux.Handle("PUT /v1/cache/snapshot", s.instrument("/v1/cache/snapshot", s.admit(classCache, http.HandlerFunc(s.handleCacheImport))))
	mux.Handle("PUT /v1/replica/checkpoints/{id}", s.instrument("/v1/replica/checkpoints/{id}", s.admit(classCache, http.HandlerFunc(s.handleReplicaPut))))
	mux.Handle("GET /v1/replica/checkpoints/{id}", s.instrument("/v1/replica/checkpoints/{id}", s.admit(classCache, http.HandlerFunc(s.handleReplicaGet))))
	mux.Handle("GET /v1/replica/digest", s.instrument("/v1/replica/digest", s.admit(classCache, http.HandlerFunc(s.handleReplicaDigest))))
	mux.Handle("GET /healthz", s.instrument("/healthz", http.HandlerFunc(s.handleHealthz)))
	mux.Handle("GET /metrics", s.instrument("/metrics", http.HandlerFunc(s.handleMetrics)))
	mux.Handle("GET /debug/traces", s.instrument("/debug/traces", http.HandlerFunc(s.handleDebugTraces)))
	mux.Handle("GET /debug/events", s.instrument("/debug/events", journal.Handler(s.journal)))

	var h http.Handler = mux
	h = s.recoverPanics(h)
	if s.cfg.RequestTimeout > 0 {
		h = http.TimeoutHandler(h, s.cfg.RequestTimeout, `{"error":"request timed out"}`)
	}
	return h
}
