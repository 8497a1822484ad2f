package journal

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"linesearch/internal/telemetry"
)

// TestKindExhaustive pins the closed-set contract: every kind has a
// distinct non-empty wire name, round-trips through ParseKind, and
// appears in Counts() even when never recorded — the invariant the
// Prometheus writers rely on to register a counter per kind.
func TestKindExhaustive(t *testing.T) {
	seen := make(map[string]bool)
	for _, k := range Kinds() {
		name := k.String()
		if name == "" {
			t.Fatalf("kind %d has no wire name", k)
		}
		if seen[name] {
			t.Fatalf("kind %d duplicates wire name %q", k, name)
		}
		seen[name] = true
		parsed, ok := ParseKind(name)
		if !ok || parsed != k {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v, true", name, parsed, ok, k)
		}
	}
	counts := New(8).Counts()
	if len(counts) != len(Kinds()) {
		t.Fatalf("Counts() has %d kinds, want %d", len(counts), len(Kinds()))
	}
	for _, k := range Kinds() {
		if _, ok := counts[k.String()]; !ok {
			t.Errorf("Counts() missing kind %q", k)
		}
	}
	// A nil journal still enumerates every kind at zero.
	var nilJ *Journal
	if got := nilJ.Counts(); len(got) != len(Kinds()) {
		t.Fatalf("nil journal Counts() has %d kinds, want %d", len(got), len(Kinds()))
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	blob, err := json.Marshal(BreakerOpen)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != `"breaker_open"` {
		t.Fatalf("marshal = %s", blob)
	}
	var k Kind
	if err := json.Unmarshal(blob, &k); err != nil || k != BreakerOpen {
		t.Fatalf("unmarshal = %v, %v", k, err)
	}
}

func TestRecordOrderAndCounts(t *testing.T) {
	j := New(64)
	ctx := context.Background()
	j.Record(ctx, MemberSuspect, "a:1", "probe failed")
	j.Record(ctx, MemberConfirmDead, "a:1", "")
	j.Record(ctx, BreakerOpen, "b:2", "3 consecutive failures")

	events := j.Events()
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	for i, want := range []Kind{MemberSuspect, MemberConfirmDead, BreakerOpen} {
		if events[i].Kind != want {
			t.Errorf("event %d kind = %v, want %v", i, events[i].Kind, want)
		}
		if events[i].Seq != uint64(i+1) {
			t.Errorf("event %d seq = %d, want %d", i, events[i].Seq, i+1)
		}
	}
	counts := j.Counts()
	if counts["member_suspect"] != 1 || counts["breaker_open"] != 1 {
		t.Errorf("counts = %v", counts)
	}
	if counts["anti_entropy_repair"] != 0 {
		t.Errorf("unrecorded kind count = %d, want 0", counts["anti_entropy_repair"])
	}
}

// TestRecordStampsTraceID checks the trace-linking contract: events
// recorded under a sampled request context carry its trace id.
func TestRecordStampsTraceID(t *testing.T) {
	tr := telemetry.New(telemetry.Config{})
	ctx, span := tr.StartRequest(context.Background(), "req", "")
	if span == nil {
		t.Fatal("request not sampled")
	}
	defer span.End()

	j := New(8)
	j.Record(ctx, BreakerOpen, "c:3", "")
	j.Record(context.Background(), BreakerClose, "c:3", "")
	events := j.Events()
	if events[0].TraceID != telemetry.TraceIDFrom(ctx) || events[0].TraceID == "" {
		t.Errorf("traced event id = %q, want %q", events[0].TraceID, telemetry.TraceIDFrom(ctx))
	}
	if events[1].TraceID != "" {
		t.Errorf("untraced event id = %q, want empty", events[1].TraceID)
	}
}

func TestBoundedEviction(t *testing.T) {
	j := New(16)
	for i := 0; i < 100; i++ {
		j.Record(context.Background(), TopologyChange, "", fmt.Sprintf("gen %d", i))
	}
	recorded, evicted, buffered := j.Stats()
	if recorded != 100 {
		t.Errorf("recorded = %d, want 100", recorded)
	}
	if buffered > 16 || buffered == 0 {
		t.Errorf("buffered = %d, want 1..16", buffered)
	}
	if evicted != 100-int64(buffered) {
		t.Errorf("evicted = %d, buffered = %d; want evicted+buffered = 100", evicted, buffered)
	}
	events := j.Events()
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("events out of order at %d: %d then %d", i, events[i-1].Seq, events[i].Seq)
		}
	}
}

func TestNilJournalSafe(t *testing.T) {
	var j *Journal
	j.Record(context.Background(), BreakerOpen, "x", "y") // must not panic
	if got := j.Events(); got != nil {
		t.Errorf("nil Events() = %v", got)
	}
	if r, e, b := j.Stats(); r != 0 || e != 0 || b != 0 {
		t.Errorf("nil Stats() = %d, %d, %d", r, e, b)
	}
}

func TestConcurrentRecord(t *testing.T) {
	j := New(128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				j.Record(context.Background(), AntiEntropyRepair, "peer", "")
			}
		}()
	}
	wg.Wait()
	if got := j.Counts()["anti_entropy_repair"]; got != 1600 {
		t.Errorf("count = %d, want 1600", got)
	}
	recorded, _, _ := j.Stats()
	if recorded != 1600 {
		t.Errorf("recorded = %d, want 1600", recorded)
	}
}

func TestHandlerFilters(t *testing.T) {
	j := New(64)
	ctx := context.Background()
	j.Record(ctx, BreakerOpen, "a:1", "")
	j.Record(ctx, BreakerClose, "a:1", "")
	j.Record(ctx, BreakerOpen, "b:2", "")
	h := Handler(j)

	get := func(query string) eventsResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("GET", "/debug/events"+query, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s = %d: %s", query, rec.Code, rec.Body)
		}
		var resp eventsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return resp
	}

	if resp := get(""); resp.Count != 3 || len(resp.Events) != 3 {
		t.Errorf("unfiltered: count=%d events=%d", resp.Count, len(resp.Events))
	}
	if resp := get("?kind=breaker_open"); resp.Count != 2 {
		t.Errorf("kind filter: count=%d", resp.Count)
	}
	if resp := get("?member=b:2"); resp.Count != 1 || resp.Events[0].Member != "b:2" {
		t.Errorf("member filter: %+v", resp)
	}
	if resp := get("?since=2"); resp.Count != 1 || resp.Events[0].Seq != 3 {
		t.Errorf("since filter: %+v", resp)
	}
	if resp := get("?n=1"); len(resp.Events) != 1 || resp.Events[0].Seq != 3 || resp.Count != 3 {
		t.Errorf("n cut should keep the most recent: %+v", resp)
	}

	// Bad parameters are 400s, not panics.
	for _, q := range []string{"?kind=nope", "?since=-1", "?n=0"} {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("GET", "/debug/events"+q, nil))
		if rec.Code != 400 {
			t.Errorf("GET %s = %d, want 400", q, rec.Code)
		}
	}
}
