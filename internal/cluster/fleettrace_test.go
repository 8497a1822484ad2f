package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"linesearch/internal/faultpoint"
)

// sampledTraceparent is a fixed, sampled W3C header; its trace id is
// what the whole fleet must agree on.
const (
	stitchTraceID      = "4bf92f3577b34da6a3ce929d0e0e4736"
	sampledTraceparent = "00-" + stitchTraceID + "-00f067aa0ba902b7-01"
)

// fleetTraces fetches and decodes GET /debug/fleet-traces from the
// router's frontend.
func (f *fleet) fleetTraces(t *testing.T, query string) fleetTracesResponse {
	t.Helper()
	code, body := f.get(t, "/debug/fleet-traces"+query)
	if code != http.StatusOK {
		t.Fatalf("fleet-traces: status %d: %s", code, body)
	}
	var resp fleetTracesResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode fleet-traces: %v\n%s", err, body)
	}
	return resp
}

// stitchQuery is the pure read the stitching tests send.
const stitchQuery = "/v1/searchtime?n=4&f=2&x=3.5"

// stitchedGet sends stitchQuery through the router under the sampled
// traceparent with the service's evaluation armed to fail once: the
// key's primary owner records its hop and answers 503, and the ring
// walk fails over to the second owner, which records its hop and
// answers. Both backends then hold a hop of the trace.
func (f *fleet) stitchedGet(t *testing.T) {
	t.Helper()
	t.Cleanup(faultpoint.Reset)
	faultpoint.Arm("service.eval", faultpoint.Rule{Times: 1})
	out, err := http.NewRequest("GET", f.frontend.URL+stitchQuery, nil)
	if err != nil {
		t.Fatal(err)
	}
	out.Header.Set("Traceparent", sampledTraceparent)
	resp, err := http.DefaultClient.Do(out)
	if err != nil {
		t.Fatalf("traced GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced GET: status %d", resp.StatusCode)
	}
	if f.router.Stats().Retries == 0 {
		t.Fatal("the request never failed over; the test is not exercising the multi-backend path")
	}
}

// stitchedTrace polls /debug/fleet-traces for the single stitched
// trace of stitchTraceID spanning the router and both backends.
func (f *fleet) stitchedTrace(t *testing.T) FleetTrace {
	t.Helper()
	// A backend's hop lands in its ring when its root span ends, which
	// may be just after the router relayed the answer; poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		fleet := f.fleetTraces(t, "?trace="+stitchTraceID)
		if len(fleet.Errors) > 0 {
			t.Fatalf("scrape errors on a healthy fleet: %v", fleet.Errors)
		}
		if len(fleet.Scraped) != 2 {
			t.Fatalf("scraped %v, want both backends", fleet.Scraped)
		}
		if len(fleet.Traces) == 1 && fleet.Traces[0].Processes == 3 {
			return fleet.Traces[0]
		}
		if time.Now().After(deadline) {
			t.Fatalf("no 3-process stitched trace for %s; last response: %+v", stitchTraceID, fleet)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetTraceStitching is the end-to-end propagation test: one
// sampled request enters the router, fails on its primary owner and
// fails over to the second, and /debug/fleet-traces must return a
// single stitched trace whose hops span all three processes — router
// and both backends — under the client's trace id.
func TestFleetTraceStitching(t *testing.T) {
	f := newFleet(t, 2, Config{})
	f.stitchedGet(t)
	stitched := f.stitchedTrace(t)

	if stitched.TraceID != stitchTraceID {
		t.Errorf("trace id = %s, want the client's %s", stitched.TraceID, stitchTraceID)
	}
	wantHops := map[string]bool{routerProcess: true, f.backendName(0): true, f.backendName(1): true}
	for i, hop := range stitched.Hops {
		if !wantHops[hop.Process] {
			t.Errorf("unexpected hop %q", hop.Process)
		}
		delete(wantHops, hop.Process)
		if hop.Trace.TraceID != stitchTraceID {
			t.Errorf("hop %s carries trace id %s; propagation broke", hop.Process, hop.Trace.TraceID)
		}
		if i == 0 && hop.Process != routerProcess {
			t.Errorf("first hop = %q, want the router leading the stitched tree", hop.Process)
		}
	}
	if len(wantHops) > 0 {
		t.Errorf("stitched trace missing hops: %v", wantHops)
	}

	// The router hop's tree must show the failover: one forward span
	// per owner.
	router := stitched.Hops[0]
	forwards := map[any]int{}
	var walk func(s SpanJSON)
	walk = func(s SpanJSON) {
		if s.Name == "forward" {
			forwards[s.Attrs["backend"]]++
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(toSpanJSON(t, router.Trace.Root))
	if len(forwards) != 2 || forwards[f.backendName(0)] != 1 || forwards[f.backendName(1)] != 1 {
		t.Errorf("router hop tree: forwards by backend %v, want one to each owner", forwards)
	}

	// Hop attribution: the wall clock went to a backend, not the router.
	if stitched.SlowestHop == routerProcess || stitched.SlowestHop == "" {
		t.Errorf("slowest hop = %q, want a backend", stitched.SlowestHop)
	}
	if stitched.DurationSeconds <= 0 || stitched.SlowestHopSeconds <= 0 {
		t.Errorf("durations not populated: %+v", stitched)
	}
}

// TestFleetTraceLookupFindsOldHops pins that a lookup by trace id
// reads each process's whole ring: a stitched trace followed by more
// newer traces on one backend than a recent-traces window holds must
// still come back with all three hops.
func TestFleetTraceLookupFindsOldHops(t *testing.T) {
	f := newFleet(t, 2, Config{})
	f.stitchedGet(t)
	f.stitchedTrace(t)
	for i := 0; i < 65; i++ {
		if code, body := f.get(t, stitchQuery); code != http.StatusOK {
			t.Fatalf("traced GET %d: status %d: %s", i, code, body)
		}
	}
	f.stitchedTrace(t)
}

// SpanJSON re-decodes a span snapshot through its wire format, so the
// test walks exactly what an operator's jq would see.
type SpanJSON struct {
	Name     string         `json:"name"`
	Attrs    map[string]any `json:"attrs"`
	Children []SpanJSON     `json:"children"`
}

func toSpanJSON(t *testing.T, v any) SpanJSON {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var s SpanJSON
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFleetTracesToleratesDeadBackend pins the degraded-mode contract:
// a shard that cannot be scraped lands in the errors map and the
// endpoint still answers 200 with the live shards' traces.
func TestFleetTracesToleratesDeadBackend(t *testing.T) {
	f := newFleet(t, 2, Config{})
	// A couple of traced requests so the live rings are not empty.
	for i := 0; i < 3; i++ {
		f.get(t, fmt.Sprintf("/v1/plan?n=%d&f=1", i+2))
	}
	dead := f.backendName(1)
	f.backends[1].Close()

	fleet := f.fleetTraces(t, "")
	if fleet.Errors[dead] == "" {
		t.Fatalf("dead backend %s not reported in errors: %+v", dead, fleet.Errors)
	}
	if len(fleet.Scraped) != 1 || fleet.Scraped[0] != f.backendName(0) {
		t.Errorf("scraped = %v, want only the live backend", fleet.Scraped)
	}
	if fleet.Count == 0 {
		t.Error("no traces returned despite live router and backend rings")
	}
}

// TestFleetTracesParams covers the parameter contract shared with the
// backends' /debug/traces: bad values answer 400, n cuts the list.
func TestFleetTracesParams(t *testing.T) {
	f := newFleet(t, 1, Config{})
	for i := 0; i < 5; i++ {
		f.get(t, fmt.Sprintf("/v1/plan?n=%d&f=1", i+2))
	}
	for _, bad := range []string{"?n=0", "?n=x", "?scrape_n=-1"} {
		if code, body := f.get(t, "/debug/fleet-traces"+bad); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", bad, code, body)
		}
	}
	fleet := f.fleetTraces(t, "?n=2")
	if len(fleet.Traces) > 2 {
		t.Errorf("n=2 returned %d traces", len(fleet.Traces))
	}
	if fleet.Count < len(fleet.Traces) {
		t.Errorf("count %d below returned %d", fleet.Count, len(fleet.Traces))
	}
	// The router's own ring endpoint shares the validation.
	for _, bad := range []string{"?n=0", "?sort=upside-down"} {
		if code, _ := f.get(t, "/debug/traces"+bad); code != http.StatusBadRequest {
			t.Errorf("/debug/traces%s: status %d, want 400", bad, code)
		}
	}
	if !strings.HasPrefix(f.backendName(0), "127.0.0.1:") {
		t.Fatalf("backend name %q not a host:port", f.backendName(0))
	}
}
