package service

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newTestService builds a service with a quiet logger.
func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return New(cfg)
}

// get performs a request against the handler and decodes the JSON body.
func doReq(t *testing.T, h http.Handler, method, target, body string) (int, map[string]any) {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, target, nil)
	} else {
		r = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	out := map[string]any{}
	if w.Body.Len() > 0 {
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s %s: invalid JSON body %q: %v", method, target, w.Body.String(), err)
		}
	}
	return w.Code, out
}

func TestPlanEndpoint(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	code, body := doReq(t, h, "GET", "/v1/plan?n=3&f=1", "")
	if code != http.StatusOK {
		t.Fatalf("status %d, body %v", code, body)
	}
	if body["strategy"] != "proportional" || !strings.HasPrefix(body["regime"].(string), "proportional") {
		t.Errorf("plan = %v", body)
	}
	// The paper's Theorem 1 value for A(3, 1).
	if cr := body["competitive_ratio"].(float64); math.Abs(cr-5.2331) > 1e-3 {
		t.Errorf("competitive_ratio = %v, want 5.2331", cr)
	}
	if lb := body["lower_bound"].(float64); math.Abs(lb-3.76) > 5e-3 {
		t.Errorf("lower_bound = %v", lb)
	}
	if beta := body["beta"].(float64); math.Abs(beta-5.0/3) > 1e-9 {
		t.Errorf("beta = %v", beta)
	}
	robots := body["turning_points"].([]any)
	if len(robots) != 3 {
		t.Fatalf("turning points for %d robots, want 3", len(robots))
	}
	for i, r := range robots {
		pts := r.([]any)
		if len(pts) < 2 {
			t.Errorf("robot %d: %d turning points", i, len(pts))
		}
		first := pts[0].(map[string]any)
		if first["t"].(float64) != 0 || first["x"].(float64) != 0 {
			t.Errorf("robot %d does not start at the origin: %v", i, first)
		}
	}
}

func TestPlanEndpointTrivialRegime(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	code, body := doReq(t, h, "GET", "/v1/plan?n=6&f=2", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if body["strategy"] != "twogroup" || body["competitive_ratio"].(float64) != 1 {
		t.Errorf("trivial plan = %v", body)
	}
	if _, ok := body["beta"]; ok {
		t.Error("beta reported outside the proportional regime")
	}
}

func TestPlanEndpointExplicitStrategyAndMindist(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	code, body := doReq(t, h, "GET", "/v1/plan?n=3&f=1&strategy=doubling&mindist=2.5", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if body["strategy"] != "doubling" || body["competitive_ratio"].(float64) != 9 {
		t.Errorf("doubling plan = %v", body)
	}
	if body["mindist"].(float64) != 2.5 {
		t.Errorf("mindist = %v", body["mindist"])
	}
}

func TestSearchTimeEndpoint(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	code, body := doReq(t, h, "GET", "/v1/searchtime?n=3&f=1&x=4", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if got := body["time"].(float64); math.Abs(got-14.6667) > 1e-3 {
		t.Errorf("time = %v, want 14.6667", got)
	}
	if got := body["ratio"].(float64); math.Abs(got-14.6667/4) > 1e-3 {
		t.Errorf("ratio = %v", got)
	}
	if body["detected"] != true || body["k"].(float64) != 2 {
		t.Errorf("body = %v", body)
	}

	// k = 1 is the fault-free first visit, strictly earlier.
	_, kbody := doReq(t, h, "GET", "/v1/searchtime?n=3&f=1&x=4&k=1", "")
	if kbody["time"].(float64) >= 14.6667-1e-9 {
		t.Errorf("k=1 visit %v not earlier than worst case", kbody["time"])
	}
}

func TestSearchTimesEndpoint(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	code, body := doReq(t, h, "GET", "/v1/searchtimes?n=3&f=1&xs=4,-2.5,1", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	times := body["times"].([]any)
	if len(times) != 3 {
		t.Fatalf("%d times, want 3", len(times))
	}
	if body["detected"].(float64) != 3 {
		t.Errorf("detected = %v, want 3", body["detected"])
	}
	// Each entry must equal the single-target endpoint's answer.
	for i, raw := range []string{"4", "-2.5", "1"} {
		_, single := doReq(t, h, "GET", "/v1/searchtime?n=3&f=1&x="+raw, "")
		want := single["time"].(float64)
		if got := times[i].(float64); got != want {
			t.Errorf("times[%d] = %v, want %v (single-target answer)", i, got, want)
		}
	}
	// Echoed targets survive the round trip.
	xs := body["xs"].([]any)
	if len(xs) != 3 || xs[1].(float64) != -2.5 {
		t.Errorf("xs = %v", xs)
	}
}

func TestSearchTimesValidation(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	for _, tt := range []struct{ name, target string }{
		{"missing xs", "/v1/searchtimes?n=3&f=1"},
		{"empty xs", "/v1/searchtimes?n=3&f=1&xs="},
		{"bad float", "/v1/searchtimes?n=3&f=1&xs=1,zzz"},
		{"single-target param", "/v1/searchtimes?n=3&f=1&x=4"},
	} {
		code, body := doReq(t, h, "GET", tt.target, "")
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%v)", tt.name, code, body)
		}
		if body["error"] == nil || body["error"] == "" {
			t.Errorf("%s: no error message", tt.name)
		}
	}
}

func TestSearchTimesBatchAndLimits(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	req := `{"queries": [
		{"op": "searchtimes", "n": 3, "f": 1, "xs": [4, 1e9]},
		{"op": "searchtimes", "n": 3, "f": 1, "xs": []},
		{"op": "searchtimes", "n": 3, "f": 1}
	]}`
	code, body := doReq(t, h, "POST", "/v1/batch", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	results := body["results"].([]any)
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	first := results[0].(map[string]any)
	if first["ok"] != true {
		t.Fatalf("searchtimes batch item failed: %v", first)
	}
	res := first["result"].(map[string]any)
	if n := len(res["times"].([]any)); n != 2 {
		t.Errorf("batched searchtimes returned %d times, want 2", n)
	}
	for i, r := range results[1:] {
		item := r.(map[string]any)
		if item["ok"] != false || item["error"] == nil {
			t.Errorf("empty-xs batch item %d accepted: %v", i+1, item)
		}
	}

	// The per-query target cap is enforced at normalization.
	big := make([]string, maxBatchTargets+1)
	for i := range big {
		big[i] = "1"
	}
	over := fmt.Sprintf(`{"queries": [{"op": "searchtimes", "n": 3, "f": 1, "xs": [%s]}]}`,
		strings.Join(big, ","))
	code, body = doReq(t, h, "POST", "/v1/batch", over)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	item := body["results"].([]any)[0].(map[string]any)
	if item["ok"] != false || !strings.Contains(item["error"].(string), "limit") {
		t.Errorf("over-limit xs accepted: %v", item)
	}
}

func TestTimelineEndpoint(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	code, body := doReq(t, h, "GET", "/v1/timeline?n=3&f=1&x=2", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if body["detected"] != true || body["detection_time"] == nil {
		t.Errorf("no detection: %v", body)
	}
	events := body["events"].([]any)
	if len(events) == 0 {
		t.Fatal("empty timeline")
	}
	kinds := map[string]bool{}
	for _, e := range events {
		kinds[e.(map[string]any)["kind"].(string)] = true
	}
	for _, k := range []string{"start", "visit", "detect"} {
		if !kinds[k] {
			t.Errorf("timeline missing %q events: %v", k, kinds)
		}
	}
	// The adversarial fault set is reported.
	if len(body["faulty"].([]any)) != 1 {
		t.Errorf("faulty = %v", body["faulty"])
	}

	// Explicit fault assignment.
	code, body = doReq(t, h, "GET", "/v1/timeline?n=3&f=1&x=2&faulty=1&tmax=30", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if got := body["faulty"].([]any); len(got) != 1 || got[0].(float64) != 1 {
		t.Errorf("faulty = %v", got)
	}
}

func TestLowerBoundEndpoint(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	code, body := doReq(t, h, "GET", "/v1/lowerbound?n=3&f=1", "")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if got := body["lower_bound"].(float64); math.Abs(got-3.76) > 5e-3 {
		t.Errorf("lower_bound = %v", got)
	}
	if got := body["upper_bound"].(float64); math.Abs(got-5.2331) > 1e-3 {
		t.Errorf("upper_bound = %v", got)
	}
}

func TestMalformedParameters(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	bad := []string{
		"/v1/plan",                                  // n, f missing
		"/v1/plan?n=3",                              // f missing
		"/v1/plan?n=abc&f=1",                        // not an integer
		"/v1/plan?n=3&f=1&mindist=NaN",              // non-finite
		"/v1/plan?n=3&f=1&mindist=Inf",              // non-finite
		"/v1/plan?n=3&f=1&mindist=-1",               // out of domain
		"/v1/plan?n=3&f=1&mindist=0.5&horizon=1e12", // horizon cap
		"/v1/plan?n=2&f=2",                          // hopeless pair
		"/v1/plan?n=3&f=1&strategy=bogus",           // unknown strategy
		"/v1/plan?n=3&f=1&strategy=cone:Inf",
		"/v1/plan?n=3&f=1&stratgy=doubling", // typo in parameter name
		"/v1/plan?n=3&f=1&n=4",              // duplicated parameter
		"/v1/searchtime?n=3&f=1",            // x missing
		"/v1/searchtime?n=3&f=1&x=NaN",
		"/v1/searchtime?n=3&f=1&x=0.25",       // below mindist
		"/v1/searchtime?n=3&f=1&x=4&k=9",      // k > n
		"/v1/timeline?n=3&f=1&x=2&faulty=7",   // index out of range
		"/v1/timeline?n=3&f=1&x=2&tmax=-5",    // negative horizon
		"/v1/timeline?n=3&f=1&x=2&tmax=1e300", // above the horizon cap
		"/v1/lowerbound?n=0&f=0",
		"/v1/lowerbound?n=3&f=1&x=4", // x not accepted here
	}
	for _, target := range bad {
		code, body := doReq(t, h, "GET", target, "")
		if code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d (want 400), body %v", target, code, body)
		}
		if body["error"] == nil || body["error"] == "" {
			t.Errorf("GET %s: no error message", target)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	for _, tt := range []struct{ method, target string }{
		{"POST", "/v1/plan?n=3&f=1"},
		{"DELETE", "/v1/searchtime?n=3&f=1&x=4"},
		{"GET", "/v1/batch"},
		{"PUT", "/metrics"},
	} {
		r := httptest.NewRequest(tt.method, tt.target, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", tt.method, tt.target, w.Code)
		}
	}
}

func TestNotFound(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	r := httptest.NewRequest("GET", "/v2/plan?n=3&f=1", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusNotFound {
		t.Errorf("status %d, want 404", w.Code)
	}
}

func TestHealthz(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	code, body := doReq(t, h, "GET", "/healthz", "")
	if code != http.StatusOK || body["status"] != "ok" {
		t.Errorf("healthz: %d %v", code, body)
	}
}

func TestBatchEndpoint(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	req := `{"queries": [
		{"op": "plan", "n": 3, "f": 1},
		{"op": "searchtime", "n": 3, "f": 1, "x": 4},
		{"op": "lowerbound", "n": 5, "f": 2},
		{"op": "plan", "n": 2, "f": 2},
		{"op": "frobnicate", "n": 3, "f": 1}
	]}`
	code, body := doReq(t, h, "POST", "/v1/batch", req)
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	results := body["results"].([]any)
	if len(results) != 5 {
		t.Fatalf("%d results, want 5", len(results))
	}
	wantOK := []bool{true, true, true, false, false}
	for i, r := range results {
		item := r.(map[string]any)
		if item["ok"] != wantOK[i] {
			t.Errorf("result %d: ok = %v, want %v (%v)", i, item["ok"], wantOK[i], item)
		}
		if !wantOK[i] && (item["error"] == nil || item["error"] == "") {
			t.Errorf("result %d: failure without error message", i)
		}
	}
	if body["errors"].(float64) != 2 {
		t.Errorf("errors = %v, want 2", body["errors"])
	}
	// Spot-check a payload survived the fan-out.
	first := results[0].(map[string]any)["result"].(map[string]any)
	if cr := first["competitive_ratio"].(float64); math.Abs(cr-5.2331) > 1e-3 {
		t.Errorf("batched plan CR = %v", cr)
	}
}

func TestBatchValidation(t *testing.T) {
	h := newTestService(t, Config{MaxBatch: 2}).Handler()
	for _, tt := range []struct {
		name, body string
	}{
		{"invalid JSON", `{"queries": [`},
		{"empty", `{"queries": []}`},
		{"no field", `{}`},
		{"unknown field", `{"queries": [], "extra": 1}`},
		{"too large", `{"queries": [{"op":"lowerbound","n":3,"f":1},{"op":"lowerbound","n":3,"f":1},{"op":"lowerbound","n":3,"f":1}]}`},
	} {
		code, body := doReq(t, h, "POST", "/v1/batch", tt.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400), body %v", tt.name, code, body)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	// Two identical plan queries: one miss then one hit.
	doReq(t, h, "GET", "/v1/plan?n=3&f=1", "")
	doReq(t, h, "GET", "/v1/plan?n=3&f=1", "")
	doReq(t, h, "GET", "/v1/plan?n=0&f=0", "") // a 400

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	// Two misses: the first plan build plus the failed build for the
	// invalid pair (failed builds count as misses but are not cached).
	for _, want := range []string{
		`linesearchd_plan_cache_operations_total{op="hits"} 1`,
		`linesearchd_plan_cache_operations_total{op="misses"} 2`,
		"linesearchd_plan_cache_size 1",
		`linesearchd_http_requests_total{endpoint="/v1/plan",class="2xx"} 2`,
		`linesearchd_http_requests_total{endpoint="/v1/plan",class="4xx"} 1`,
		`linesearchd_http_request_duration_seconds_count{endpoint="/v1/plan"} 3`,
	} {
		if !strings.Contains(w.Body.String(), want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, w.Body.String())
		}
	}
	if strings.Contains(w.Body.String(), "linesearchd_uptime_seconds -") {
		t.Error("negative uptime")
	}
}

func TestRequestTimeout(t *testing.T) {
	slow := func(k PlanKey) (*Plan, error) {
		time.Sleep(200 * time.Millisecond)
		return defaultBuild(k)
	}
	h := newTestService(t, Config{RequestTimeout: 10 * time.Millisecond, Build: slow}).Handler()
	r := httptest.NewRequest("GET", "/v1/plan?n=3&f=1", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusServiceUnavailable {
		t.Errorf("status %d, want 503", w.Code)
	}
}

// TestPlanColdKeyHammer is the -race herd test required by the issue:
// many concurrent requests for one cold cache key must construct the
// plan exactly once and all succeed.
func TestPlanColdKeyHammer(t *testing.T) {
	var builds atomic.Int64
	svc := newTestService(t, Config{Build: func(k PlanKey) (*Plan, error) {
		builds.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the herd window
		return defaultBuild(k)
	}})
	h := svc.Handler()

	const herd = 64
	var wg sync.WaitGroup
	codes := make([]int, herd)
	bodies := make([][]byte, herd)
	wg.Add(herd)
	for i := 0; i < herd; i++ {
		go func(i int) {
			defer wg.Done()
			r := httptest.NewRequest("GET", "/v1/plan?n=3&f=1", nil)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			codes[i] = w.Code
			bodies[i] = w.Body.Bytes()
		}(i)
	}
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("plan constructed %d times under the herd, want exactly 1", got)
	}
	for i := 0; i < herd; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, codes[i], bodies[i])
		}
	}
	// And the cache counters agree: one miss, the rest hits or
	// in-flight waits.
	cache := svc.Cache().Stats()
	if cache.Misses != 1 {
		t.Errorf("cache misses = %d, want 1", cache.Misses)
	}
	if total := cache.Hits + cache.InflightWaits; total != herd-1 {
		t.Errorf("hits+waits = %d, want %d", total, herd-1)
	}
}

// TestConcurrentMixedTraffic exercises every endpoint at once under
// -race.
func TestConcurrentMixedTraffic(t *testing.T) {
	h := newTestService(t, Config{CacheSize: 4}).Handler()
	targets := []string{
		"/v1/plan?n=3&f=1",
		"/v1/plan?n=5&f=2",
		"/v1/plan?n=5&f=3",
		"/v1/plan?n=7&f=3",
		"/v1/plan?n=9&f=4", // five keys through a 4-entry cache: forces eviction churn
		"/v1/searchtime?n=3&f=1&x=7.5",
		"/v1/timeline?n=3&f=1&x=2",
		"/v1/lowerbound?n=11&f=5",
		"/healthz",
		"/metrics",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				target := targets[(g+i)%len(targets)]
				r := httptest.NewRequest("GET", target, nil)
				w := httptest.NewRecorder()
				h.ServeHTTP(w, r)
				if w.Code != http.StatusOK {
					t.Errorf("GET %s: %d %s", target, w.Code, w.Body.String())
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestBatchPartialFailureParallel: a batch bigger than the worker pool
// still returns every result in order.
func TestBatchLargeOrdered(t *testing.T) {
	h := newTestService(t, Config{BatchWorkers: 3}).Handler()
	var sb strings.Builder
	sb.WriteString(`{"queries":[`)
	for i := 0; i < 40; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		// Alternate valid and invalid pairs so order is observable.
		if i%2 == 0 {
			fmt.Fprintf(&sb, `{"op":"lowerbound","n":%d,"f":%d}`, i/2+2, 1)
		} else {
			sb.WriteString(`{"op":"lowerbound","n":0,"f":5}`)
		}
	}
	sb.WriteString(`]}`)
	code, body := doReq(t, h, "POST", "/v1/batch", sb.String())
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	results := body["results"].([]any)
	if len(results) != 40 {
		t.Fatalf("%d results", len(results))
	}
	for i, r := range results {
		item := r.(map[string]any)
		wantOK := i%2 == 0
		if item["ok"] != wantOK {
			t.Errorf("result %d: ok=%v want %v", i, item["ok"], wantOK)
			continue
		}
		if wantOK {
			n := item["result"].(map[string]any)["n"].(float64)
			if int(n) != i/2+2 {
				t.Errorf("result %d out of order: n=%v", i, n)
			}
		}
	}
	if body["errors"].(float64) != 20 {
		t.Errorf("errors = %v", body["errors"])
	}
}
