package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"linesearch"
)

// lineWatcher is an io.Writer that signals once the "listening on"
// line arrives, so the test knows the ephemeral port is bound.
type lineWatcher struct {
	mu    sync.Mutex
	buf   strings.Builder
	ready chan struct{}
	once  sync.Once
}

func newLineWatcher() *lineWatcher { return &lineWatcher{ready: make(chan struct{})} }

func (w *lineWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if strings.Contains(w.buf.String(), "listening on ") {
		w.once.Do(func() { close(w.ready) })
	}
	return len(p), nil
}

func (w *lineWatcher) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// addr extracts the bound address from the "listening on" line.
func (w *lineWatcher) addr(t *testing.T) string {
	t.Helper()
	for _, line := range strings.Split(w.String(), "\n") {
		if i := strings.Index(line, "listening on "); i >= 0 {
			return strings.TrimSpace(line[i+len("listening on "):])
		}
	}
	t.Fatal("no listening line in output:\n" + w.String())
	return ""
}

// TestServerEndToEnd is the ISSUE acceptance check: the daemon binds an
// ephemeral port, serves /v1/plan?n=3&f=1 with the paper's CR for
// A(3,1), /metrics reports cache hits after repeated identical
// queries, and cancelling the context (the same path SIGINT drives via
// signal.NotifyContext) shuts it down cleanly.
func TestServerEndToEnd(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	out := newLineWatcher()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-quiet"}, out)
	}()

	select {
	case <-out.ready:
	case err := <-done:
		t.Fatalf("server exited before binding: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never reported its address")
	}
	base := "http://" + out.addr(t)
	client := &http.Client{Timeout: 5 * time.Second}

	getJSON := func(path string) map[string]any {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var m map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
		return m
	}

	// The paper's A(3,1) proportional schedule: CR must match the
	// closed form (~5.2331).
	wantCR, err := linesearch.CompetitiveRatio(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // repeat the identical query to generate cache hits
		plan := getJSON("/v1/plan?n=3&f=1")
		cr, ok := plan["competitive_ratio"].(float64)
		if !ok {
			t.Fatalf("plan response missing competitive_ratio: %v", plan)
		}
		if math.Abs(cr-wantCR) > 1e-9 {
			t.Fatalf("CR = %v, want %v", cr, wantCR)
		}
	}
	if math.Abs(wantCR-5.2331) > 1e-3 {
		t.Fatalf("sanity: CompetitiveRatio(3,1) = %v, expected ~5.2331", wantCR)
	}

	// Healthz responds.
	if h := getJSON("/healthz"); h["status"] != "ok" {
		t.Fatalf("healthz = %v", h)
	}

	// Metrics show the repeated query hit the cache.
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d, err %v", resp.StatusCode, err)
	}
	// Three identical queries: one miss, then two hits.
	for _, want := range []string{
		`linesearchd_plan_cache_operations_total{op="hits"} 2`,
		`linesearchd_http_request_duration_seconds_count{endpoint="/v1/plan"} 3`,
	} {
		if !strings.Contains(string(metrics), want+"\n") {
			t.Errorf("metrics missing %s after repeated identical queries:\n%s", want, metrics)
		}
	}

	// Graceful shutdown: cancelling the context is exactly what
	// signal.NotifyContext does on Ctrl-C.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown returned error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(out.String(), "shut down cleanly") {
		t.Errorf("missing clean-shutdown message in output:\n%s", out.String())
	}

	// The listener is actually gone.
	if _, err := client.Get(base + "/healthz"); err == nil {
		t.Error("server still accepting connections after shutdown")
	}
}

// TestDebugListener boots the daemon with the opt-in debug listener:
// pprof and /debug/traces serve on the second port, never on the main
// one, and /metrics answers a Prometheus scrape in the text format.
func TestDebugListener(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := newLineWatcher()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
			"-trace-sample", "1", "-quiet"}, out)
	}()
	select {
	case <-out.ready:
	case err := <-done:
		t.Fatalf("server exited before binding: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never reported its address")
	}

	// The debug line can land just after the main one; wait for it.
	var mainAddr, debugAddr string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(out.String(), "\n") {
			if i := strings.Index(line, "debug listening on "); i >= 0 {
				debugAddr = strings.TrimSpace(line[i+len("debug listening on "):])
			} else if i := strings.Index(line, "listening on "); i >= 0 {
				mainAddr = strings.TrimSpace(line[i+len("listening on "):])
			}
		}
		if debugAddr != "" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if mainAddr == "" || debugAddr == "" {
		t.Fatalf("addresses not reported (main %q, debug %q):\n%s", mainAddr, debugAddr, out.String())
	}
	client := &http.Client{Timeout: 5 * time.Second}

	// Generate one traced request, then read it back via the debug port.
	resp, err := client.Get("http://" + mainAddr + "/v1/plan?n=3&f=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = client.Get("http://" + debugAddr + "/debug/traces?sort=slowest")
	if err != nil {
		t.Fatal(err)
	}
	var traces struct {
		Traces []struct {
			Name string `json:"name"`
		} `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, tr := range traces.Traces {
		found = found || tr.Name == "/v1/plan"
	}
	if !found {
		t.Errorf("debug port reports no /v1/plan trace: %+v", traces)
	}

	// pprof lives on the debug port only.
	resp, err = client.Get("http://" + debugAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("debug pprof status %d", resp.StatusCode)
	}
	resp, err = client.Get("http://" + mainAddr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof must not serve on the main port")
	}

	// A Prometheus scrape of the main port gets the text exposition.
	req, _ := http.NewRequest("GET", "http://"+mainAddr+"/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	resp, err = client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body := new(strings.Builder)
	if _, err := io.Copy(body, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("scrape Content-Type = %q", ct)
	}
	if !strings.Contains(body.String(), "linesearchd_http_requests_total") {
		t.Errorf("exposition missing request counter:\n%.500s", body.String())
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	if _, err := client.Get("http://" + debugAddr + "/healthz"); err == nil {
		t.Error("debug listener still accepting connections after shutdown")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	cases := [][]string{
		{"-log", "yaml"},               // unknown log format
		{"-addr", "definitely:not:ok"}, // unparseable listen address
		{"-addr", "127.0.0.1:0", "-debug-addr", "definitely:not:ok"},
		{"-no-such-flag"},
	}
	for _, args := range cases {
		err := run(context.Background(), args, &strings.Builder{})
		if err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunTimeoutFlagDisables(t *testing.T) {
	// -timeout 0 must disable the per-request timeout rather than make
	// every request time out instantly.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := newLineWatcher()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-timeout", "0", "-quiet"}, out)
	}()
	select {
	case <-out.ready:
	case err := <-done:
		t.Fatalf("server exited before binding: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never reported its address")
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/v1/plan?n=4&f=1", out.addr(t)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d with timeout disabled", resp.StatusCode)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
