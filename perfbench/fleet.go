package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"linesearch/internal/cluster"
	"linesearch/internal/service"
	"linesearch/internal/sweep"
	"linesearch/internal/telemetry"
	"linesearch/internal/telemetry/journal"
)

// fleetConfig is the in-process fleet's settings: the values the
// linesearchd and linerouter flag defaults produce, so that a change
// to the shipped defaults shows in the benchmark.
type fleetConfig struct {
	Backends           int      `json:"backends"`
	Topology           string   `json:"topology"`
	CacheSize          int      `json:"plan_cache_size"`
	BackendTraceSample float64  `json:"backend_trace_sample"`
	RouterTraceSample  float64  `json:"router_trace_sample"`
	TraceBuffer        int      `json:"trace_buffer"`
	HealthInterval     duration `json:"health_interval"`
	Attempts           int      `json:"router_attempts"`
	VNodes             int      `json:"router_vnodes"`
	QuarantineVotes    int      `json:"quarantine_votes"`
	WarmKeys           int      `json:"warm_keys"`
	BreakerCooldown    duration `json:"breaker_cooldown"`
	SLOObjective       float64  `json:"slo_objective"`
	SLOLatencyBudget   duration `json:"slo_latency_budget"`
	RequestTimeout     duration `json:"request_timeout"`
	MaxBatch           int      `json:"max_batch"`
	AccessLog          string   `json:"access_log"`
	Transport          string   `json:"transport"`
}

var defaultFleet = fleetConfig{
	Backends:           2,
	Topology:           "static -backends list, no gossip",
	CacheSize:          128,
	BackendTraceSample: 0.1,
	RouterTraceSample:  1,
	TraceBuffer:        256,
	HealthInterval:     duration(2 * time.Second),
	Attempts:           3,
	VNodes:             cluster.DefaultVNodes,
	QuarantineVotes:    3,
	WarmKeys:           64,
	BreakerCooldown:    duration(2 * time.Second),
	SLOObjective:       0.99,
	SLOLatencyBudget:   duration(250 * time.Millisecond),
	RequestTimeout:     duration(15 * time.Second),
	MaxBatch:           1024,
	AccessLog:          "slog text handler at Info level into io.Discard",
	Transport:          "loopback httptest servers in the benchmark process",
}

// duration is a time.Duration that the report prints as "2s".
type duration time.Duration

func (d duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// discardLogger formats every Info record, as the daemons do by
// default, and throws the bytes away.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
}

// fleet is two service backends behind one cluster router, each on its
// own loopback HTTP server.
type fleet struct {
	backends   []*service.Service
	backendSrv []*httptest.Server
	router     *cluster.Router
	routerSrv  *httptest.Server
}

// startFleet starts the fleet with cfg. When spans is non-nil the
// router and backend handlers are wrapped to record spans while
// spans.on is set. dir receives each backend's sweep and snapshot
// directories (nothing is written there on the serving path).
func startFleet(cfg fleetConfig, dir string, spans *spanLog) (*fleet, error) {
	logger := discardLogger()
	f := &fleet{}
	var urls []string
	for i := 0; i < cfg.Backends; i++ {
		tracer := telemetry.New(telemetry.Config{SampleRate: cfg.BackendTraceSample, Capacity: cfg.TraceBuffer})
		jrnl := journal.New(0)
		svc := service.New(service.Config{
			CacheSize:      cfg.CacheSize,
			MaxBatch:       cfg.MaxBatch,
			RequestTimeout: time.Duration(cfg.RequestTimeout),
			Logger:         logger,
			Tracer:         tracer,
			Journal:        jrnl,
			Sweeps: sweep.NewManager(sweep.Config{
				Dir: filepath.Join(dir, fmt.Sprintf("sweeps-%d", i)), Logger: logger, Tracer: tracer, Journal: jrnl,
			}),
			SnapshotDir: filepath.Join(dir, fmt.Sprintf("snapshots-%d", i)),
		})
		f.backends = append(f.backends, svc)
		var h http.Handler = svc.Handler()
		if spans != nil {
			h = spans.wrap(layerBackend, h)
		}
		srv := httptest.NewUnstartedServer(h)
		// linesearchd's server timeouts for its default 15s budget.
		srv.Config.ReadHeaderTimeout = 5 * time.Second
		srv.Config.IdleTimeout = 2 * time.Minute
		srv.Config.ReadTimeout = 20 * time.Second
		srv.Config.WriteTimeout = 20 * time.Second
		srv.Start()
		f.backendSrv = append(f.backendSrv, srv)
		urls = append(urls, srv.URL)
	}
	router, err := cluster.New(cluster.Config{
		Backends:         urls,
		VNodes:           cfg.VNodes,
		Attempts:         cfg.Attempts,
		HealthInterval:   time.Duration(cfg.HealthInterval),
		QuarantineVotes:  cfg.QuarantineVotes,
		WarmKeys:         cfg.WarmKeys,
		BreakerCooldown:  time.Duration(cfg.BreakerCooldown),
		Logger:           logger,
		Tracer:           telemetry.New(telemetry.Config{SampleRate: cfg.RouterTraceSample, Capacity: cfg.TraceBuffer}),
		Journal:          journal.New(0),
		SLOObjective:     cfg.SLOObjective,
		SLOLatencyBudget: time.Duration(cfg.SLOLatencyBudget),
	})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("start router: %w", err)
	}
	f.router = router
	var h http.Handler = router.Handler()
	if spans != nil {
		h = spans.wrap(layerRouter, h)
	}
	f.routerSrv = httptest.NewUnstartedServer(h)
	f.routerSrv.Config.ReadHeaderTimeout = 5 * time.Second
	f.routerSrv.Config.IdleTimeout = 2 * time.Minute
	f.routerSrv.Start()
	return f, nil
}

// cacheStats sums the backends' plan-cache counters.
func (f *fleet) cacheStats() service.CacheStats {
	var sum service.CacheStats
	for _, b := range f.backends {
		st := b.Cache().Stats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Evictions += st.Evictions
		sum.InflightWaits += st.InflightWaits
	}
	return sum
}

// close stops the servers first, so no request is in flight when the
// router and services shut down.
func (f *fleet) close() {
	if f.routerSrv != nil {
		f.routerSrv.Close()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.backendSrv {
		s.Close()
	}
	for _, b := range f.backends {
		b.Close()
	}
}
