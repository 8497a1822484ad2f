package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"linesearch/internal/telemetry"
	"linesearch/internal/telemetry/journal"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenStats is a fixed router snapshot with every field nonzero and
// real host:port backend names. Changing the exposition intentionally
// requires regenerating testdata/metrics.prom with -update and
// reviewing the diff.
func goldenStats() Stats {
	latency := func(scale int64, sum float64) telemetry.HistogramSnapshot {
		return telemetry.HistogramSnapshot{
			Count: 7 * scale,
			Sum:   sum,
			Buckets: map[string]int64{
				"0.0001": 0, "0.00025": 1 * scale, "0.0005": 2 * scale, "0.001": 4 * scale,
				"0.0025": 5 * scale, "0.005": 6 * scale, "0.01": 7 * scale, "0.025": 7 * scale,
				"0.05": 7 * scale, "0.1": 7 * scale, "0.25": 7 * scale, "0.5": 7 * scale,
				"1": 7 * scale, "2.5": 7 * scale, "5": 7 * scale, "+Inf": 7 * scale,
			},
		}
	}
	counts := (*journal.Journal)(nil).Counts()
	counts["breaker_open"] = 3
	counts["topology_change"] = 1
	return Stats{
		Backends: []BackendStats{
			{
				Name: "127.0.0.1:8081", Available: true, BreakerOpen: true,
				Requests: 140, Failures: 4, ProbeFails: 6, Latency: latency(20, 0.84),
			},
			{
				Name: "127.0.0.1:8082", Available: true, BreakerOpen: true,
				Requests: 70, Failures: 1, ProbeFails: 3, Latency: latency(10, 0.42),
			},
		},
		Proxied: 200, Retries: 9, ProxyErrors: 2,
		WarmRuns: 3, WarmKeys: 15, WarmErrors: 1,
		SLO: SLOStats{
			Objective:            0.99,
			LatencyBudgetSeconds: 0.25,
			Windows: []SLOWindow{
				{Window: "5m", Requests: 120, ErrorRate: 0.025, ErrorBurnRate: 2.5, SlowRate: 0.0125, LatencyBurnRate: 1.25},
				{Window: "1h", Requests: 200, ErrorRate: 0.01, ErrorBurnRate: 1, SlowRate: 0.005, LatencyBurnRate: 0.5},
			},
		},
		JournalEvents: counts,
		Tracer: telemetry.TracerStats{
			RequestsSeen: 300, Sampled: 30, Finished: 29,
			SpansDropped: 4, Evicted: 8, TruncatedTraces: 2, Buffered: 21,
		},
	}
}

func TestRouterPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := writePrometheus(&buf, goldenStats()); err != nil {
		t.Fatal(err)
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
	// maps, so this catches ordering nondeterminism the golden
	// comparison alone would only catch flakily.
	var again bytes.Buffer
	if err := writePrometheus(&again, goldenStats()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("two renders of the same snapshot differ — unstable ordering")
	}
}

// TestPrometheusExposesEveryInteger sets every integer of the golden
// router snapshot to a distinct value and requires each one as a sample
// value, so a counter added to a stats struct without a family fails
// here.
func TestPrometheusExposesEveryInteger(t *testing.T) {
	snap := goldenStats()
	next, values := int64(900001), map[string]int64{}
	fillDistinct(reflect.ValueOf(&snap).Elem(), "Stats", &next, values)
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
