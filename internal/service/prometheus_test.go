package service

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"linesearch/internal/sweep"
	"linesearch/internal/telemetry"
	"linesearch/internal/telemetry/journal"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenSnapshot is a fixed, fully populated metrics snapshot: every
// family present, label values needing escaping, non-trivial cumulative
// buckets. Changing the exposition format intentionally requires
// regenerating testdata/metrics.prom with -update and reviewing the
// diff.
func goldenSnapshot() Snapshot {
	return Snapshot{
		UptimeSeconds: 321.5,
		Endpoints: map[string]EndpointSnapshot{
			"/v1/plan": {
				Status: map[string]int64{"2xx": 5, "4xx": 2, "5xx": 0},
				Latency: telemetry.HistogramSnapshot{
					Count: 7,
					Sum:   0.042,
					Buckets: map[string]int64{
						"0.0001": 0, "0.00025": 1, "0.0005": 2, "0.001": 4,
						"0.0025": 5, "0.005": 6, "0.01": 7, "0.025": 7,
						"0.05": 7, "0.1": 7, "0.25": 7, "0.5": 7,
						"1": 7, "2.5": 7, "5": 7, "+Inf": 7,
					},
				},
			},
			`/odd"name\x`: { // exercises label escaping
				Status: map[string]int64{"2xx": 1},
				Latency: telemetry.HistogramSnapshot{
					Count:   1,
					Sum:     0.001,
					Buckets: map[string]int64{"0.001": 1, "+Inf": 1},
				},
			},
		},
		Cache: CacheStats{Hits: 5, Misses: 2, Evictions: 1, InflightWaits: 3, Imports: 2, Warmed: 4, Size: 1, Capacity: 128},
		Sweeps: sweep.ManagerStats{
			Submitted: 4, Resumed: 1, Completed: 2, Failed: 1, Cancelled: 1,
			CellsComputed: 100, CellsResumed: 10, CellErrors: 3,
			CellRetries: 6, CellsQuarantined: 1, CheckpointFailures: 2,
			ReplicasRecovered: 1, RunningJobs: 1, PendingJobs: 2,
			CellLatency: telemetry.HistogramSnapshot{
				Count: 3, Sum: 1.25,
				Buckets: map[string]int64{"0.01": 1, "0.1": 2, "1": 2, "10": 3, "+Inf": 3},
			},
		},
		Resilience: ResilienceStats{
			Shed:             map[string]int64{"batch": 1, "query": 9, "sweeps": 0},
			Inflight:         map[string]int64{"batch": 0, "query": 2, "sweeps": 1},
			FaultPointsArmed: 1,
			FaultsInjected:   12,
		},
		DroppedObservations: 4,
		Runtime: RuntimeStats{
			Goroutines: 12, GOMAXPROCS: 8,
			HeapAllocBytes: 1048576, HeapSysBytes: 4194304, HeapObjects: 2048,
			TotalAllocBytes: 16777216, GCRuns: 9,
			GCPauseTotalSeconds: 0.0025, LastGCPauseSeconds: 0.0001,
		},
		Traces: telemetry.TracerStats{
			RequestsSeen: 100, Sampled: 10, Finished: 9,
			SpansDropped: 1, Evicted: 2, Buffered: 7,
			TruncatedTraces: 1,
		},
		JournalEvents: func() map[string]int64 {
			// Every kind at zero (the exhaustive-by-construction shape
			// Journal.Counts returns), with a few nonzero samples.
			counts := (*journal.Journal)(nil).Counts()
			counts["breaker_open"] = 2
			counts["member_suspect"] = 1
			return counts
		}(),
	}
}

// TestPrometheusJournalExhaustive pins the acceptance contract: the
// exposition carries a linesearchd_journal_events_total sample for
// every declared journal kind, even before any event is recorded.
func TestPrometheusJournalExhaustive(t *testing.T) {
	snap := goldenSnapshot()
	var buf bytes.Buffer
	if err := writePrometheus(&buf, snap); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, k := range journal.Kinds() {
		want := fmt.Sprintf(`linesearchd_journal_events_total{kind="%s"}`, k)
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing journal counter for kind %q", k)
		}
	}
}

// TestPrometheusExposesEveryInteger sets every integer of the golden
// snapshot to a distinct value and requires each one as a sample
// value, so a counter added to a stats struct without a family fails
// here.
func TestPrometheusExposesEveryInteger(t *testing.T) {
	snap := goldenSnapshot()
	next, values := int64(900001), map[string]int64{}
	fillDistinct(reflect.ValueOf(&snap).Elem(), "Snapshot", &next, values)
	var buf bytes.Buffer
	if err := writePrometheus(&buf, snap); err != nil {
		t.Fatal(err)
	}
	for path, v := range values {
		if !strings.Contains(buf.String(), " "+strconv.FormatInt(v, 10)+"\n") {
			t.Errorf("%s = %d is not in the exposition", path, v)
		}
	}
}

// fillDistinct sets every integer reachable from v — struct fields,
// slice elements, map values — to a distinct value counting up from
// *next, recording each under its path in out.
func fillDistinct(v reflect.Value, path string, next *int64, out map[string]int64) {
	switch {
	case v.CanInt():
		v.SetInt(*next)
	case v.CanUint():
		v.SetUint(uint64(*next))
	case v.Kind() == reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), path+"."+v.Type().Field(i).Name, next, out)
		}
		return
	case v.Kind() == reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(v.Index(i), fmt.Sprintf("%s[%d]", path, i), next, out)
		}
		return
	case v.Kind() == reflect.Map:
		for _, k := range v.MapKeys() {
			e := reflect.New(v.Type().Elem()).Elem()
			e.Set(v.MapIndex(k))
			fillDistinct(e, fmt.Sprintf("%s[%v]", path, k), next, out)
			v.SetMapIndex(k, e)
		}
		return
	default:
		return
	}
	out[path] = *next
	*next++
}

func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writePrometheus(&buf, goldenSnapshot()); err != nil {
		t.Fatalf("writePrometheus: %v", err)
	}
	path := filepath.Join("testdata", "metrics.prom")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition differs from golden %s (regenerate with -update and review):\ngot:\n%s", path, buf.String())
	}

	// Equal snapshots must render byte-identically: the writer iterates
	// maps, so this catches any ordering nondeterminism the golden
	// comparison alone would only catch flakily.
	var again bytes.Buffer
	if err := writePrometheus(&again, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two renders of the same snapshot differ — unstable ordering")
	}
}

// sampleLine matches one exposition sample: name{labels} value.
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (\S+)$`)

func TestPrometheusWellFormed(t *testing.T) {
	var buf bytes.Buffer
	if err := writePrometheus(&buf, goldenSnapshot()); err != nil {
		t.Fatal(err)
	}
	type series struct {
		labels  string // sans le
		lastLe  float64
		lastVal int64
		inf     bool
	}
	buckets := map[string]*series{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line %q", line)
		}
		name := m[1]
		if !strings.HasPrefix(name, "linesearchd_") {
			t.Errorf("metric %q missing the linesearchd_ prefix", name)
		}
		if !strings.HasSuffix(name, "_bucket") {
			continue
		}
		// Cumulativity: within one series, counts never decrease as le
		// grows, and +Inf comes last.
		labels := m[2]
		le := ""
		rest := make([]string, 0, 2)
		for _, kv := range strings.Split(strings.Trim(labels, "{}"), ",") {
			if v, ok := strings.CutPrefix(kv, "le="); ok {
				le = strings.Trim(v, `"`)
			} else {
				rest = append(rest, kv)
			}
		}
		sort.Strings(rest)
		key := name + "{" + strings.Join(rest, ",") + "}"
		val, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			t.Fatalf("bucket value %q: %v", m[3], err)
		}
		s := buckets[key]
		if s == nil {
			s = &series{lastLe: -1}
			buckets[key] = s
		}
		if s.inf {
			t.Errorf("%s: sample after le=+Inf", key)
		}
		if le == "+Inf" {
			s.inf = true
		} else {
			ub, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("le %q: %v", le, err)
			}
			if ub <= s.lastLe {
				t.Errorf("%s: le %g out of order after %g", key, ub, s.lastLe)
			}
			s.lastLe = ub
		}
		if val < s.lastVal {
			t.Errorf("%s: bucket count %d decreased below %d", key, val, s.lastVal)
		}
		s.lastVal = val
	}
	for key, s := range buckets {
		if !s.inf {
			t.Errorf("%s: series never closed with le=+Inf", key)
		}
	}
}

// TestMetricsContentNegotiation pins that /metrics has one
// representation: whatever the Accept header or ?format= asks for, the
// answer is the text exposition.
func TestMetricsContentNegotiation(t *testing.T) {
	h := newTestService(t, Config{}).Handler()
	for _, tc := range []struct{ target, accept string }{
		{"/metrics", ""},
		{"/metrics", "application/json"},
		{"/metrics", "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5,*/*;q=0.1"},
		{"/metrics?format=json", ""},
		{"/metrics?format=prometheus", "application/json"},
		{"/metrics?format=bogus", "text/html"},
	} {
		r := httptest.NewRequest("GET", tc.target, nil)
		if tc.accept != "" {
			r.Header.Set("Accept", tc.accept)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("GET %s (Accept %q): status %d: %s", tc.target, tc.accept, w.Code, w.Body.String())
		}
		if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
			t.Errorf("GET %s (Accept %q): Content-Type = %q, want the text exposition", tc.target, tc.accept, ct)
		}
		if !strings.HasPrefix(w.Body.String(), "# HELP linesearchd_uptime_seconds ") {
			t.Errorf("GET %s (Accept %q): body is not the exposition:\n%.200s", tc.target, tc.accept, w.Body.String())
		}
	}
}
