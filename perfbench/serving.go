package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"linesearch/internal/service"
	"linesearch/internal/sweep"
	"linesearch/internal/telemetry"
)

// warmupPerConn is the fixed warm-up each set-up sends on every
// connection before timing starts: enough plan-zipf requests to fill
// both backends' 128-entry caches to their steady hit ratio.
const warmupPerConn = 2000

// clipTolerance flags a traced request whose clipping discarded more
// than 1/clipTolerance of its client span; maxClippedShare fails a
// traced run whose clipping discarded more than that share of all
// client spans together.
const (
	clipTolerance   = 10
	maxClippedShare = 0.05
)

// settleTime is the untimed load run between the last set-up and the
// measured phase.
const settleTime = time.Second

// serving drives one serving workload: a closed loop of conns
// connections through the router, each sending its own request
// sequence back to back and checking every response body against the
// reference.
type serving struct {
	in     servingInputs
	ref    [][]byte
	conns  int
	spans  *spanLog // nil unless traced
	fleet  *fleet
	cursor []int
	nextID atomic.Uint64
}

// phase is one measured stretch of the closed loop.
type phase struct {
	tally
	elapsed time.Duration
	lat     []int64 // ns per verified request
	doneAt  []int64 // completion offset (ns) per verified request
}

// reference computes every distinct request's expected body once, from
// a single in-process service with no router, so the fleet's answers
// (relay included) must match it byte for byte.
func reference(in servingInputs, dir string) ([][]byte, error) {
	logger := discardLogger()
	svc := service.New(service.Config{
		CacheSize: len(in.paths) + 1,
		Logger:    logger,
		Tracer:    telemetry.New(telemetry.Config{SampleRate: -1}),
		Sweeps:    sweep.NewManager(sweep.Config{Dir: filepath.Join(dir, "reference-sweeps"), Logger: logger}),
	})
	defer svc.Close()
	h := svc.Handler()
	ref := make([][]byte, len(in.paths))
	for i, p := range in.paths {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("reference %.80s: status %d: %s", p, rec.Code, rec.Body.String())
		}
		ref[i] = rec.Body.Bytes()
	}
	return ref, nil
}

// checkPaperPin checks that the reference reports the paper's
// A(3,1) = 5.23307 for the (3,1) key.
func checkPaperPin(in servingInputs, ref [][]byte) error {
	for i, k := range in.keys {
		if k != (pair{3, 1}) {
			continue
		}
		var res struct {
			CR float64 `json:"competitive_ratio"`
		}
		if err := json.Unmarshal(ref[i], &res); err != nil {
			return fmt.Errorf("decode (3,1) plan: %w", err)
		}
		if math.Round(res.CR*1e5)/1e5 != 5.23307 {
			return fmt.Errorf("(3,1) plan reports CR %.6f, want 5.23307", res.CR)
		}
		return nil
	}
	return fmt.Errorf("(3,1) is not in the plan-zipf key set")
}

// setUp starts a fresh fleet, waits for the first verified answer and
// sends the fixed warm-up, returning the wall time of all three. The
// previous fleet, if any, is closed first (untimed).
func (s *serving) setUp(dir string, warmup int) (time.Duration, phase, error) {
	if s.fleet != nil {
		s.fleet.close()
		s.fleet = nil
	}
	s.cursor = make([]int, s.conns)
	start := time.Now()
	f, err := startFleet(defaultFleet, dir, s.spans)
	if err != nil {
		return 0, phase{}, err
	}
	s.fleet = f
	first := s.run(0, 1)
	if first.failed > 0 {
		return 0, first, fmt.Errorf("first request failed: %v", first.failures)
	}
	warm := s.run(0, warmup)
	elapsed := time.Since(start)
	warm.add(first.tally)
	return elapsed, warm, nil
}

// run drives every connection until dur has passed (dur > 0) or each
// has sent count requests, continuing each connection's sequence from
// where the previous phase stopped.
func (s *serving) run(dur time.Duration, count int) phase {
	base := s.fleet.routerSrv.URL
	parts := make([]phase, s.conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < s.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			parts[c] = s.conn(c, base, start, dur, count)
		}(c)
	}
	wg.Wait()
	out := phase{elapsed: time.Since(start)}
	for _, p := range parts {
		out.lat = append(out.lat, p.lat...)
		out.doneAt = append(out.doneAt, p.doneAt...)
		out.add(p.tally)
	}
	return out
}

// conn is one closed-loop connection: its own transport holding one
// keep-alive connection, so the loop opens exactly s.conns connections.
func (s *serving) conn(c int, base string, start time.Time, dur time.Duration, count int) phase {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	seq := s.in.seq[c]
	var p phase
	if count > 0 {
		p.lat = make([]int64, 0, count)
		p.doneAt = make([]int64, 0, count)
	} else {
		p.lat = make([]int64, 0, 1<<16)
		p.doneAt = make([]int64, 0, 1<<16)
	}
	var body bytes.Buffer
	for i := 0; ; i++ {
		if count > 0 && i >= count || dur > 0 && time.Since(start) >= dur {
			break
		}
		idx := seq[s.cursor[c]%len(seq)]
		s.cursor[c]++
		p.attempted++
		t0 := time.Now()
		var ctrace int64
		req, err := http.NewRequest(http.MethodGet, base+s.in.paths[idx], nil)
		if err != nil {
			p.fail("build request: %v", err)
			continue
		}
		traced := s.spans != nil && s.spans.on.Load()
		var id uint64
		if traced {
			id = s.nextID.Add(1)
			req.Header.Set(requestIDHeader, strconv.FormatUint(id, 10))
			ctrace = s.spans.now()
		}
		resp, err := client.Do(req)
		if err != nil {
			p.fail("%.60s: %v", s.in.paths[idx], err)
			continue
		}
		body.Reset()
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		end := time.Now()
		if traced {
			s.spans.add(span{id: id, layer: layerClient, iv: interval{ctrace, s.spans.now()}})
		}
		switch {
		case err != nil:
			p.fail("%.60s: read body: %v", s.in.paths[idx], err)
		case resp.StatusCode != http.StatusOK:
			p.fail("%.60s: status %d: %.200s", s.in.paths[idx], resp.StatusCode, body.String())
		case !bytes.Equal(body.Bytes(), s.ref[idx]):
			p.fail("%.60s: body differs from the reference (%d vs %d bytes)", s.in.paths[idx], body.Len(), len(s.ref[idx]))
		default:
			p.lat = append(p.lat, int64(end.Sub(t0)))
			p.doneAt = append(p.doneAt, int64(end.Sub(start)))
		}
	}
	return p
}

// throughput is the median of the phase's one-second window rates.
func (p phase) throughput() float64 {
	return median(windowRates(p.doneAt, int64(p.elapsed)))
}

// runServing runs plan-zipf or searchtimes-batch.
func runServing(o *outcome, opts options, in servingInputs, warmup int) error {
	ref, err := reference(in, opts.dir)
	if err != nil {
		return err
	}
	if opts.workload == "plan-zipf" {
		if err := checkPaperPin(in, ref); err != nil {
			o.fail("%v", err)
		}
	}
	s := &serving{in: in, ref: ref, conns: len(in.seq)}
	if opts.trace {
		s.spans = newSpanLog()
	}
	defer func() {
		if s.fleet != nil {
			s.fleet.close()
		}
	}()
	fleets := 0
	err = timeSetups(o, "fleet start + first verified answer + fixed warm-up", func() (time.Duration, error) {
		fleets++
		d, warm, err := s.setUp(filepath.Join(opts.dir, fmt.Sprintf("fleet-%d", fleets)), warmup)
		o.add(warm.tally)
		return d, err
	})
	if err != nil {
		return err
	}

	// An untimed, verified stretch of the closed loop, so the measured
	// phase starts on a settled machine and runtime.
	o.add(s.run(settleTime, 0).tally)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := readHostCPU()
	plain := s.run(time.Duration(opts.seconds)*time.Second, 0)
	runtime.ReadMemStats(&ms1)
	o.details["host_steal_share"] = cpu0.stealShare(readHostCPU())
	if err := o.setPeakRSS(); err != nil {
		return err
	}
	o.add(plain.tally)
	untraced := plain.throughput()
	o.details["window_rates"] = windowRates(plain.doneAt, int64(plain.elapsed))
	if !opts.trace {
		o.setE2E("throughput_rps", untraced, len(windowRates(plain.doneAt, int64(plain.elapsed))), "median of one-second windows of verified requests")
		lat := nsToMs(plain.lat)
		o.setE2E("latency_p50_ms", percentile(lat, 0.50), len(lat), "client-side request latency, every verified request of the phase")
		o.setE2E("latency_p99_ms", percentile(lat, 0.99), len(lat), "client-side request latency, every verified request of the phase")
		return nil
	}

	o.setLayer("process.allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(plain.attempted), int(plain.attempted), "whole process, untraced phase")
	o.setLayer("process.gc_cycles", float64(ms1.NumGC-ms0.NumGC), int(plain.attempted), "untraced phase")

	rs0, cs0 := s.fleet.router.Stats(), s.fleet.cacheStats()
	s.spans.on.Store(true)
	traced := s.run(time.Duration(opts.seconds)*time.Second, 0)
	s.spans.on.Store(false)
	rs1, cs1 := s.fleet.router.Stats(), s.fleet.cacheStats()
	o.add(traced.tally)
	o.setLayer("tracing.overhead_ratio", traced.throughput()/untraced, 2, "traced over untraced throughput_rps")

	reqs, unlinked := linkRequests(s.spans.take())
	var clientSelf, clusterSelf, handler []float64
	var relayed, shed, clippedOver int64
	var sumClient, sumClientSelf, sumClusterSelf, sumService, sumClipped int64
	for _, r := range reqs {
		cs, rs, svc, clipped := r.partition()
		if clipped > r.client.dur()/clipTolerance {
			clippedOver++
		}
		sumClipped += clipped
		sumClient += r.client.dur()
		sumClientSelf += cs
		sumClusterSelf += rs
		sumService += svc
		clientSelf = append(clientSelf, float64(cs)/1e6)
		clusterSelf = append(clusterSelf, float64(rs)/1e6)
		for _, b := range r.backends {
			handler = append(handler, float64(b.dur())/1e6)
		}
		relayed += r.relayed
		if r.shed {
			shed++
		}
	}
	n := len(reqs)
	perReq := func(ns int64) float64 { return float64(ns) / 1e6 / float64(max(n, 1)) }
	o.details["trace"] = map[string]any{
		"linked_requests":           n,
		"unlinked_requests":         unlinked,
		"client_span_ms_mean":       perReq(sumClient),
		"client_self_ms_mean":       perReq(sumClientSelf),
		"cluster_self_ms_mean":      perReq(sumClusterSelf),
		"service_ms_mean":           perReq(sumService),
		"clipped_ms_mean":           perReq(sumClipped),
		"clipped_share_of_span":     float64(sumClipped) / float64(max(sumClient, 1)),
		"requests_clipped_over_10%": clippedOver,
		"router_hop_share_of_span":  float64(sumClusterSelf) / float64(max(sumClient, 1)),
		"service_share_of_span":     float64(sumService) / float64(max(sumClient, 1)),
		"client_self_share_of_span": float64(sumClientSelf) / float64(max(sumClient, 1)),
	}
	if share := float64(sumClipped) / float64(max(sumClient, 1)); share > maxClippedShare {
		o.failures = append(o.failures, fmt.Sprintf("span clipping discarded %.1f%% of the client spans, so the self times do not describe the requests", 100*share))
	}
	o.setLayer("client.self_ms_p50", percentile(clientSelf, 0.5), n, "client span minus router span")
	o.setLayer("cluster.self_ms_p50", percentile(clusterSelf, 0.5), n, "router span minus backend spans")
	o.setLayer("cluster.self_ms_p99", percentile(clusterSelf, 0.99), n, "router span minus backend spans")
	o.setLayer("cluster.relay_bytes_per_req", float64(relayed)/float64(max(n, 1)), n, "bytes the router wrote per traced request")
	o.setLayer("cluster.retries", float64(rs1.Retries-rs0.Retries), int(traced.attempted), "router /metrics delta over the traced phase")
	o.setLayer("cluster.proxy_errors", float64(rs1.ProxyErrors-rs0.ProxyErrors), int(traced.attempted), "router /metrics delta over the traced phase")
	o.setLayer("service.handler_ms_p50", percentile(handler, 0.5), len(handler), "backend span")
	o.setLayer("service.handler_ms_p99", percentile(handler, 0.99), len(handler), "backend span")
	lookups := (cs1.Hits - cs0.Hits) + (cs1.Misses - cs0.Misses)
	base := fmt.Sprintf("%d plan-cache lookups over both backends, traced phase", lookups)
	o.setLayer("service.cache_hit_ratio", float64(cs1.Hits-cs0.Hits)/float64(max(lookups, 1)), int(lookups), base)
	o.setLayer("service.cache_misses", float64(cs1.Misses-cs0.Misses), int(lookups), base)
	o.setLayer("service.cache_evictions", float64(cs1.Evictions-cs0.Evictions), int(lookups), base)
	o.setLayer("service.cache_inflight_waits", float64(cs1.InflightWaits-cs0.InflightWaits), int(lookups), base)
	o.setLayer("service.shed_429", float64(shed), n, "traced requests a backend answered with 429")
	return nil
}
