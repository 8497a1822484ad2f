// Command linesearchd serves the linesearch library over JSON HTTP: a
// long-lived daemon with a plan cache (constructing a search plan is
// the expensive, perfectly cacheable step), batch evaluation over a
// bounded worker pool, and built-in metrics.
//
// Usage:
//
//	linesearchd [-addr :8080] [-cache 128] [-workers 0] [-max-batch 1024]
//	            [-timeout 15s] [-log text|json] [-quiet]
//	            [-sweep-dir data/sweeps] [-sweep-workers 0] [-sweep-jobs 2]
//	            [-snapshot-dir data/snapshots]
//	            [-trace-sample 0.1] [-trace-buffer 256] [-debug-addr ""]
//	            [-join http://peer:8080,...] [-advertise http://host:8080]
//	            [-gossip-interval 1s] [-replica-dir data/replicas]
//	            [-replication-rf 2] [-anti-entropy-interval 30s]
//
// Endpoints (see internal/service):
//
//	GET  /v1/plan?n=3&f=1          plan parameters, CR, bounds, turning points
//	GET  /v1/searchtime?n=3&f=1&x=7.5
//	GET  /v1/timeline?n=3&f=1&x=2
//	GET  /v1/lowerbound?n=3&f=1
//	POST /v1/batch                 {"queries": [{"op": "plan", "n": 3, "f": 1}, ...]}
//	POST /v1/sweeps                submit a background parameter sweep (checkpointed, resumable)
//	GET  /v1/sweeps                list sweep jobs; /v1/sweeps/{id} for status, .../result for data
//	GET  /v1/cache/snapshot        export hot plan-cache entries (the router's warm transfer)
//	PUT  /v1/cache/snapshot        import a snapshot, prewarming the plan cache
//	GET  /healthz
//	GET  /metrics                  Prometheus text exposition (the only format)
//	GET  /debug/traces             recent/slowest sampled request traces
//	GET  /debug/events             structured event journal (membership, breaker, hints, quarantine)
//
// With -join set, the daemon gossips SWIM-style membership with its
// peers (POST /gossip), streams every fsynced sweep checkpoint to the
// next replication-factor-1 ring owners (PUT /v1/replica/...), spools
// hinted handoffs for peers that are down, and runs periodic
// anti-entropy so replicas converge after partitions. Routers started
// with -join subscribe to the same gossip and rebuild their rings
// without any PUT /admin/topology.
//
// With -debug-addr set, a second listener (keep it loopback-only; the
// profiling endpoints can stall the process and expose internals)
// additionally serves net/http/pprof under /debug/pprof/ plus the same
// /debug/traces, /metrics and /healthz.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: in-flight
// requests get a drain window before the listener closes, and running
// sweeps are checkpointed so the next start resumes them when their
// specs are resubmitted.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"linesearch/internal/cluster"
	"linesearch/internal/membership"
	"linesearch/internal/service"
	"linesearch/internal/sweep"
	"linesearch/internal/telemetry"
	"linesearch/internal/telemetry/journal"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "linesearchd:", err)
		os.Exit(1)
	}
}

// shutdownGrace is how long in-flight requests get to drain after a
// shutdown signal.
const shutdownGrace = 10 * time.Second

// run parses flags, binds the listener, and serves until ctx is
// cancelled (by signal in production, directly in tests). It prints
// one "listening on <addr>" line to out once the port is bound, so
// callers using ":0" can discover the ephemeral address.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("linesearchd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks an ephemeral port)")
	cacheSize := fs.Int("cache", 128, "number of constructed plans kept in the LRU cache")
	workers := fs.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
	maxBatch := fs.Int("max-batch", 1024, "maximum queries per batch request")
	timeout := fs.Duration("timeout", 15*time.Second, "per-request timeout (0 disables)")
	logFormat := fs.String("log", "text", "log format: text or json")
	quiet := fs.Bool("quiet", false, "suppress access logs (errors still logged)")
	sweepDir := fs.String("sweep-dir", filepath.Join("data", "sweeps"), "directory for sweep checkpoints and result datasets")
	sweepWorkers := fs.Int("sweep-workers", 0, "cell workers per running sweep job (0 = GOMAXPROCS)")
	sweepJobs := fs.Int("sweep-jobs", 2, "sweep jobs running concurrently (excess submissions queue)")
	snapshotDir := fs.String("snapshot-dir", filepath.Join("data", "snapshots"), "directory where rejected cache-snapshot imports are quarantined (empty disables)")
	traceSample := fs.Float64("trace-sample", 0.1, "fraction of requests traced into /debug/traces (1 = all, 0 = default, negative disables)")
	traceBuffer := fs.Int("trace-buffer", 256, "completed traces retained for /debug/traces")
	debugAddr := fs.String("debug-addr", "", "optional pprof/debug listen address (empty disables; keep it loopback-only, e.g. 127.0.0.1:6060)")
	join := fs.String("join", "", "comma-separated seed URLs of fleet members to gossip with (empty = single-node, no membership)")
	advertise := fs.String("advertise", "", "base URL peers reach this daemon at (required with -join, e.g. http://10.0.0.5:8080)")
	gossipInterval := fs.Duration("gossip-interval", time.Second, "membership probe cadence")
	replicaDir := fs.String("replica-dir", filepath.Join("data", "replicas"), "directory for sweep checkpoints replicated from peers (empty disables replication)")
	replicationRF := fs.Int("replication-rf", 2, "total owners per sweep checkpoint, this daemon included (f+1: survive rf-1 crashes)")
	antiEntropyEvery := fs.Duration("anti-entropy-interval", 30*time.Second, "cadence of replica digest comparison and repair (0 disables)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var seeds []string
	if *join != "" {
		if *advertise == "" {
			return errors.New("-join requires -advertise (the URL peers reach this daemon at)")
		}
		// The first node of a fleet bootstraps by joining via its own
		// URL; drop self from the seed list rather than probing it.
		for _, raw := range strings.Split(*join, ",") {
			if raw = strings.TrimSpace(raw); raw != "" && raw != *advertise {
				seeds = append(seeds, raw)
			}
		}
		if err := cluster.ValidateBackends(append([]string{*advertise}, seeds...)); err != nil {
			return fmt.Errorf("membership seed list: %w", err)
		}
	}

	var handler slog.Handler
	level := slog.LevelInfo
	if *quiet {
		level = slog.LevelError
	}
	opts := &slog.HandlerOptions{Level: level}
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return fmt.Errorf("unknown log format %q (want text or json)", *logFormat)
	}
	logger := slog.New(handler)

	requestTimeout := *timeout
	if requestTimeout == 0 {
		requestTimeout = -1 // Config treats 0 as "default"; negative disables.
	}
	// One tracer shared by the request path and the sweep engine, so
	// /debug/traces interleaves both.
	tracer := telemetry.New(telemetry.Config{
		SampleRate: *traceSample,
		Capacity:   *traceBuffer,
	})
	// One journal shared by the service, sweep engine, membership and
	// replicator, so /debug/events is the process-wide transition log.
	jrnl := journal.New(0)
	// Replica store and replicator come first: the sweep manager's
	// checkpoint hook streams into them.
	var store *sweep.ReplicaStore
	var replicator *cluster.Replicator
	var err error
	if *replicaDir != "" {
		if err := os.MkdirAll(*replicaDir, 0o755); err != nil {
			return fmt.Errorf("replica directory: %w", err)
		}
		store = sweep.NewReplicaStore(*replicaDir, logger)
	}
	if *join != "" && store != nil {
		homeDir := *sweepDir
		replicator, err = cluster.NewReplicator(cluster.ReplicatorConfig{
			Self:    *advertise,
			RF:      *replicationRF,
			Logger:  logger,
			Tracer:  tracer,
			Journal: jrnl,
			LocalDigest: func() map[string]sweep.CheckpointInfo {
				out := sweep.ScanCheckpoints(homeDir)
				for id, info := range store.Digest() {
					if held, ok := out[id]; !ok || info.Newer(held) {
						out[id] = info
					}
				}
				return out
			},
			LoadLocal: func(id string) (*sweep.Checkpoint, error) {
				if cp, err := sweep.LoadCheckpoint(homeDir, id); err == nil && cp != nil {
					return cp, nil
				}
				return store.Get(id)
			},
			Apply: store.Put,
		})
		if err != nil {
			return fmt.Errorf("replicator: %w", err)
		}
	}
	sweepCfg := sweep.Config{
		Dir:           *sweepDir,
		Workers:       *sweepWorkers,
		MaxActiveJobs: *sweepJobs,
		Logger:        logger,
		Tracer:        tracer,
		Journal:       jrnl,
	}
	if store != nil {
		sweepCfg.ReplicaDir = store.Dir()
	}
	if replicator != nil {
		sweepCfg.OnCheckpoint = func(cp sweep.Checkpoint) {
			replicator.Replicate(context.Background(), cp)
		}
	}
	sweeps := sweep.NewManager(sweepCfg)
	// Fail fast on an unwritable sweep directory instead of failing the
	// first submitted job.
	if err := os.MkdirAll(*sweepDir, 0o755); err != nil {
		return fmt.Errorf("sweep directory: %w", err)
	}
	svc := service.New(service.Config{
		CacheSize:      *cacheSize,
		BatchWorkers:   *workers,
		MaxBatch:       *maxBatch,
		RequestTimeout: requestTimeout,
		Logger:         logger,
		Tracer:         tracer,
		Journal:        jrnl,
		Sweeps:         sweeps,
		SnapshotDir:    *snapshotDir,
		Replicas:       store,
	})

	// With -join, gossip membership keeps the fleet view; membership
	// changes retarget the replicator, and a periodic anti-entropy pass
	// repairs replica divergence after partitions.
	var node *membership.Node
	var aeStop chan struct{}
	httpHandler := svc.Handler()
	if *join != "" {
		selfURL, _ := url.Parse(*advertise)
		node, err = membership.NewNode(membership.Config{
			Self:      membership.Member{Addr: selfURL.Host, URL: *advertise, Role: membership.RoleShard},
			Seeds:     seeds,
			Transport: membership.NewHTTPTransport(&http.Client{Timeout: 2 * time.Second}),
			Interval:  *gossipInterval,
			Logger:    logger,
			Journal:   jrnl,
			OnChange: func(v membership.View) {
				if replicator != nil {
					replicator.SetMembers(v.ShardURLs())
				}
				logger.Info("membership changed", "alive_shards", len(v.AliveShards()), "version", v.Version)
			},
		})
		if err != nil {
			return fmt.Errorf("membership: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("POST "+membership.GossipPath, membership.Handler(node))
		mux.Handle("/", httpHandler)
		httpHandler = mux
		node.Start()
		defer node.Close()
		if replicator != nil && *antiEntropyEvery > 0 {
			aeStop = make(chan struct{})
			go func() {
				ticker := time.NewTicker(*antiEntropyEvery)
				defer ticker.Stop()
				for {
					select {
					case <-aeStop:
						return
					case <-ticker.C:
						replicator.AntiEntropy(context.Background())
					}
				}
			}()
			defer close(aeStop)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "linesearchd: listening on %s\n", ln.Addr())
	logger.Info("serving", "addr", ln.Addr().String(), "cache", *cacheSize, "max_batch", *maxBatch)

	srv := &http.Server{
		Handler:           httpHandler,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	if requestTimeout > 0 {
		// A slow-reading or slow-writing client must not hold a
		// connection much past the request budget: give the full body
		// read and the response write the budget plus slack, so the
		// in-handler timeout (which produces the clean 503 body) always
		// fires first.
		srv.ReadTimeout = requestTimeout + 5*time.Second
		srv.WriteTimeout = requestTimeout + 5*time.Second
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	// The debug surface (pprof, traces) binds separately and only on
	// request: profiling handlers can stall the process, so they never
	// share the serving port and are off by default.
	var debugSrv *http.Server
	if *debugAddr != "" {
		debugLn, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			srv.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		fmt.Fprintf(out, "linesearchd: debug listening on %s\n", debugLn.Addr())
		logger.Warn("debug/pprof surface enabled; do not expose it publicly",
			"addr", debugLn.Addr().String())
		debugSrv = &http.Server{
			Handler:           svc.DebugHandler(),
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		// Debug-listener failures (beyond clean shutdown) are logged, not
		// fatal: losing pprof must not take the serving path down.
		go func() {
			if err := debugSrv.Serve(debugLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server", "err", err)
			}
		}()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	logger.Info("shutting down", "grace", shutdownGrace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if debugSrv != nil {
		if err := debugSrv.Shutdown(shutdownCtx); err != nil {
			logger.Error("debug shutdown", "err", err)
		}
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	// Checkpoint and stop background sweeps after the listener closes;
	// resubmitting their specs on the next start resumes them.
	svc.Close()
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "linesearchd: shut down cleanly")
	return nil
}
