// Command linerouter fronts a fleet of linesearchd backends with a
// consistent-hash router: every /v1/* request is placed on the ring by
// its plan key, proxied with health-aware retry that honors the
// backends' 429/503 + Retry-After admission contract, and topology
// changes warm-transfer hot plan-cache entries so a reshaped fleet
// serves its keys without recompiling them.
//
// Each backend has one availability state, its circuit breaker, fed
// by proxied attempts and /healthz probes alike: -quarantine-votes
// consecutive failures open it for -breaker-cooldown (or for a
// backend's Retry-After), and a healthy probe closes it once that
// window has lapsed. A request whose primary owner is unavailable goes
// to the key's next ring owner first.
//
// Usage:
//
//	linerouter -backends http://127.0.0.1:8081,http://127.0.0.1:8082 \
//	           [-addr :8090] [-attempts 3] [-vnodes 160] \
//	           [-health-interval 2s] [-quarantine-votes 3] [-breaker-cooldown 2s] \
//	           [-slow-threshold 0] [-warm-keys 64] [-log text|json] [-quiet] \
//	           [-trace-sample 1] [-trace-buffer 256] [-debug-addr ""] \
//	           [-slo-objective 0.99] [-slo-latency-budget 250ms] \
//	           [-join http://peer:8080,...] [-advertise http://host:8090] \
//	           [-gossip-interval 1s]
//
// Endpoints:
//
//	/v1/*                    proxied to the owning backend (ring failover on retryable errors)
//	GET /healthz             200 while at least one backend is routable; includes SLO burn rates
//	GET /metrics             router + per-backend stats, Prometheus text exposition
//	PUT /admin/topology      {"backends": [...]} — replace the fleet and warm-transfer hot keys
//	GET /debug/traces        the router's own sampled traces
//	GET /debug/fleet-traces  cross-process stitched traces (scrapes every backend's ring)
//	GET /debug/events        structured event journal (breaker, topology)
//	POST /gossip             membership exchange (only with -join)
//
// With -debug-addr set, a second listener (keep it loopback-only)
// additionally serves net/http/pprof under /debug/pprof/ plus the same
// debug, metrics and health endpoints — parity with linesearchd.
//
// With -join, the router participates in the fleet's gossip as an
// observer: it holds no keys, but every membership change rebuilds its
// ring automatically — no PUT /admin/topology needed, and any number
// of routers converge to the same ring without a coordination store.
// While gossip reports zero alive shards (a full partition), the
// router keeps its last topology: stale routing beats no routing.
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
	"strings"
	"syscall"
	"time"

	"linesearch/internal/cluster"
	"linesearch/internal/membership"
	"linesearch/internal/telemetry"
	"linesearch/internal/telemetry/journal"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "linerouter:", err)
		os.Exit(1)
	}
}

// shutdownGrace is how long in-flight proxied requests get to drain
// after a shutdown signal.
const shutdownGrace = 10 * time.Second

// run parses flags, binds the listener, and proxies until ctx is
// cancelled. Like linesearchd it prints one "listening on <addr>" line
// so callers using ":0" can discover the port.
func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("linerouter", flag.ContinueOnError)
	addr := fs.String("addr", ":8090", "listen address (host:port; port 0 picks an ephemeral port)")
	backends := fs.String("backends", "", "comma-separated linesearchd base URLs (required)")
	attempts := fs.Int("attempts", 3, "attempts per retryable request, first included")
	vnodes := fs.Int("vnodes", cluster.DefaultVNodes, "virtual nodes per backend on the hash ring")
	healthInterval := fs.Duration("health-interval", 2*time.Second, "backend health probe cadence (negative disables)")
	quarantineVotes := fs.Int("quarantine-votes", 3, "consecutive failures (failed health probes and proxied attempts alike) that open a backend's circuit breaker")
	slowThreshold := fs.Duration("slow-threshold", 0, "mean proxied latency per probe window that fails the health probe (0 disables)")
	warmKeys := fs.Int("warm-keys", 64, "hot plan-cache entries transferred per donor on topology change (negative disables)")
	breakerCooldown := fs.Duration("breaker-cooldown", 2*time.Second, "circuit-breaker open duration after consecutive failures")
	logFormat := fs.String("log", "text", "log format: text or json")
	quiet := fs.Bool("quiet", false, "suppress info logs (errors still logged)")
	traceSample := fs.Float64("trace-sample", 1, "fraction of proxied requests traced into /debug/traces (1 = all, 0 = default, negative disables)")
	traceBuffer := fs.Int("trace-buffer", 256, "completed traces retained for /debug/traces")
	debugAddr := fs.String("debug-addr", "", "optional pprof/debug listen address (empty disables; keep it loopback-only, e.g. 127.0.0.1:6061)")
	sloObjective := fs.Float64("slo-objective", 0.99, "fraction of routed requests that must be good (neither 5xx nor over the latency budget)")
	sloLatencyBudget := fs.Duration("slo-latency-budget", 250*time.Millisecond, "per-request latency budget the SLO slow-rate burn is measured against")
	join := fs.String("join", "", "comma-separated seed URLs of fleet members to gossip with (empty = static -backends topology)")
	advertise := fs.String("advertise", "", "base URL fleet members reach this router at (required with -join)")
	gossipInterval := fs.Duration("gossip-interval", time.Second, "membership probe cadence")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var seeds []string
	if *join != "" {
		if *advertise == "" {
			return errors.New("-join requires -advertise (the URL fleet members reach this router at)")
		}
		// Tolerate self in -join (the bootstrap idiom is joining via
		// your own URL); the router only probes the other seeds.
		all := splitBackends(*join)
		for _, s := range all {
			if s != *advertise {
				seeds = append(seeds, s)
			}
		}
		if err := cluster.ValidateBackends(append([]string{*advertise}, seeds...)); err != nil {
			return fmt.Errorf("membership seed list: %w", err)
		}
	}
	if *backends == "" && len(seeds) == 0 {
		return errors.New("-backends is required (comma-separated linesearchd URLs), or use -join")
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

	// With -join but no -backends, the gossip seeds double as the
	// initial topology; the first membership exchange replaces it.
	initial := splitBackends(*backends)
	if len(initial) == 0 {
		initial = seeds
	}
	tracer := telemetry.New(telemetry.Config{
		SampleRate: *traceSample,
		Capacity:   *traceBuffer,
	})
	jrnl := journal.New(0)
	router, err := cluster.New(cluster.Config{
		Backends:         initial,
		VNodes:           *vnodes,
		Attempts:         *attempts,
		HealthInterval:   *healthInterval,
		QuarantineVotes:  *quarantineVotes,
		SlowThreshold:    *slowThreshold,
		WarmKeys:         *warmKeys,
		BreakerCooldown:  *breakerCooldown,
		Logger:           logger,
		Tracer:           tracer,
		Journal:          jrnl,
		SLOObjective:     *sloObjective,
		SLOLatencyBudget: *sloLatencyBudget,
	})
	if err != nil {
		return err
	}
	defer router.Close()

	// As a gossip observer the router never owns keys, but it hears
	// every membership change and rebuilds its ring from the alive
	// shard set. An empty alive set keeps the previous topology.
	httpHandler := router.Handler()
	if len(seeds) > 0 {
		selfURL, _ := url.Parse(*advertise)
		node, nerr := membership.NewNode(membership.Config{
			Self:      membership.Member{Addr: selfURL.Host, URL: *advertise, Role: membership.RoleObserver},
			Seeds:     seeds,
			Transport: membership.NewHTTPTransport(&http.Client{Timeout: 2 * time.Second}),
			Interval:  *gossipInterval,
			Logger:    logger,
			Journal:   jrnl,
			OnChange: func(v membership.View) {
				shards := v.ShardURLs()
				if len(shards) == 0 {
					logger.Warn("membership reports no alive shards; keeping last topology")
					return
				}
				if err := router.SetTopology(shards); err != nil {
					logger.Error("membership topology rejected", "err", err)
					return
				}
				logger.Info("topology from gossip", "shards", len(shards), "version", v.Version)
			},
		})
		if nerr != nil {
			return fmt.Errorf("membership: %w", nerr)
		}
		mux := http.NewServeMux()
		mux.Handle("POST "+membership.GossipPath, membership.Handler(node))
		mux.Handle("/", httpHandler)
		httpHandler = mux
		node.Start()
		defer node.Close()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "linerouter: listening on %s\n", ln.Addr())
	logger.Info("routing", "addr", ln.Addr().String(), "backends", router.Backends())

	srv := &http.Server{
		Handler:           httpHandler,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	// The debug surface (pprof, traces, fleet-traces, events) binds
	// separately and only on request — parity with linesearchd's
	// -debug-addr: profiling handlers can stall the process, so they
	// never share the serving port and are off by default.
	var debugSrv *http.Server
	if *debugAddr != "" {
		debugLn, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			srv.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		fmt.Fprintf(out, "linerouter: debug listening on %s\n", debugLn.Addr())
		logger.Warn("debug/pprof surface enabled; do not expose it publicly",
			"addr", debugLn.Addr().String())
		debugSrv = &http.Server{
			Handler:           router.DebugHandler(),
			ReadHeaderTimeout: 5 * time.Second,
			IdleTimeout:       2 * time.Minute,
		}
		// Debug-listener failures (beyond clean shutdown) are logged, not
		// fatal: losing pprof must not take the proxy down.
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
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "linerouter: shut down cleanly")
	return nil
}

// splitBackends parses the -backends flag, tolerating spaces and a
// trailing comma.
func splitBackends(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
