package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// histogramFamilies are the latency histograms loadgen knows how to
// read back, in preference order: the service's own request histogram
// when the target is a linesearchd, the per-backend proxy histogram
// when it is a linerouter.
var histogramFamilies = []string{
	"linesearchd_http_request_duration_seconds",
	"linerouter_backend_request_duration_seconds",
}

// serverPercentiles scrapes the target's Prometheus exposition and
// returns the p50 and p99 (in seconds) of its request-latency
// histogram, aggregated across every label set of the family. This is
// the server's own view of the run just generated — comparing it with
// the client-side percentiles separates service latency from queueing
// and network time.
func serverPercentiles(ctx context.Context, client *http.Client, target string) (p50, p99 float64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("metrics returned %s", resp.Status)
	}
	buckets, err := parseBuckets(resp.Body, histogramFamilies)
	if err != nil {
		return 0, 0, err
	}
	if len(buckets) == 0 {
		return 0, 0, fmt.Errorf("no latency histogram in exposition")
	}
	return histPercentile(buckets, 0.50), histPercentile(buckets, 0.99), nil
}

// bucket is one cumulative histogram bucket: count of observations at
// or below the upper bound (in seconds; +Inf is math.Inf(1)).
type bucket struct {
	le    float64
	count int64
}

// parseBuckets scans a Prometheus text exposition for the first family
// in families that has samples, summing `<family>_bucket` lines across
// label sets by upper bound. The exposition format's cumulative-bucket
// convention makes cross-label aggregation a plain sum.
func parseBuckets(r io.Reader, families []string) ([]bucket, error) {
	sums := make(map[string]map[float64]int64, len(families))
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		for _, fam := range families {
			prefix := fam + "_bucket"
			if !strings.HasPrefix(line, prefix) {
				continue
			}
			le, count, ok := parseBucketLine(line)
			if !ok {
				continue
			}
			if sums[fam] == nil {
				sums[fam] = make(map[float64]int64)
			}
			sums[fam][le] += count
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, fam := range families {
		if byLE := sums[fam]; len(byLE) > 0 {
			out := make([]bucket, 0, len(byLE))
			for le, c := range byLE {
				out = append(out, bucket{le: le, count: c})
			}
			sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
			return out, nil
		}
	}
	return nil, nil
}

// parseBucketLine extracts the le label and sample value from one
// `<name>_bucket{...le="0.005"...} 42` line. Lines from scrapers we
// do not control may carry a trailing timestamp or an OpenMetrics
// exemplar (`... 42 # {trace_id="..."} 0.003 1700000000`), so the
// value is the first token after the label set — never the last token
// on the line.
func parseBucketLine(line string) (le float64, count int64, ok bool) {
	li := strings.Index(line, `le="`)
	if li < 0 {
		return 0, 0, false
	}
	rest := line[li+4:]
	qi := strings.IndexByte(rest, '"')
	if qi < 0 {
		return 0, 0, false
	}
	leStr := rest[:qi]
	if leStr == "+Inf" {
		le = math.Inf(1)
	} else {
		var err error
		if le, err = strconv.ParseFloat(leStr, 64); err != nil {
			return 0, 0, false
		}
	}
	val, ok := sampleValue(line)
	if !ok {
		return 0, 0, false
	}
	// Counters may be rendered as floats (e.g. "42.0" or "1e3") by
	// other exporters; accept them as long as they are whole-valued.
	f, err := strconv.ParseFloat(val, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) || f != math.Trunc(f) {
		return 0, 0, false
	}
	return le, int64(f), true
}

// sampleValue returns the value token of one exposition sample line:
// the first whitespace-separated token after the metric name and its
// (optional) label set. Trailing timestamps and exemplar annotations
// are ignored. Label values may themselves contain '}' or spaces, so
// the end of the label set is found by walking the quoted strings
// rather than searching for the first closing brace.
func sampleValue(line string) (string, bool) {
	after := line
	if bi := strings.IndexByte(line, '{'); bi >= 0 {
		end, ok := labelSetEnd(line, bi)
		if !ok {
			return "", false
		}
		after = line[end+1:]
	} else if sp := strings.IndexAny(line, " \t"); sp >= 0 {
		after = line[sp:]
	} else {
		return "", false
	}
	fields := strings.Fields(after)
	if len(fields) == 0 || fields[0] == "#" {
		return "", false
	}
	return fields[0], true
}

// labelSetEnd returns the index of the '}' closing the label set that
// opens at line[open], honoring quoted label values with escaped
// quotes (`le="0.005"`, `path="/odd\"name"`).
func labelSetEnd(line string, open int) (int, bool) {
	inQuotes := false
	for i := open + 1; i < len(line); i++ {
		switch line[i] {
		case '\\':
			if inQuotes {
				i++ // skip the escaped byte
			}
		case '"':
			inQuotes = !inQuotes
		case '}':
			if !inQuotes {
				return i, true
			}
		}
	}
	return 0, false
}

// sloBurnFamilies are the router gauges the -slo-gate reads back.
var sloBurnFamilies = []string{
	"linerouter_slo_error_burn_rate",
	"linerouter_slo_latency_burn_rate",
}

// sloBurnRates scrapes the target's exposition for the SLO burn-rate
// gauges and returns them keyed family -> window label -> burn. A
// target that is not a linerouter (no such family) returns empty maps,
// not an error: the gate reports that distinctly.
func sloBurnRates(ctx context.Context, client *http.Client, target string) (map[string]map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics returned %s", resp.Status)
	}
	return parseWindowGauges(resp.Body, sloBurnFamilies)
}

// parseWindowGauges scans an exposition for the given gauge families,
// collecting each sample's window label and value. Unknown families,
// comments, timestamps and exemplars are skipped — same hardening as
// parseBuckets.
func parseWindowGauges(r io.Reader, families []string) (map[string]map[string]float64, error) {
	out := make(map[string]map[string]float64, len(families))
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		for _, fam := range families {
			if !strings.HasPrefix(line, fam+"{") {
				continue
			}
			wi := strings.Index(line, `window="`)
			if wi < 0 {
				continue
			}
			rest := line[wi+8:]
			qi := strings.IndexByte(rest, '"')
			if qi < 0 {
				continue
			}
			window := rest[:qi]
			val, ok := sampleValue(line)
			if !ok {
				continue
			}
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || math.IsNaN(f) {
				continue
			}
			if out[fam] == nil {
				out[fam] = make(map[string]float64)
			}
			out[fam][window] = f
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// histPercentile estimates the q-th percentile from cumulative buckets
// with linear interpolation inside the landing bucket (the standard
// histogram_quantile estimate). The +Inf bucket clamps to the last
// finite bound: no upper bound exists to interpolate toward.
func histPercentile(buckets []bucket, q float64) float64 {
	if len(buckets) == 0 {
		return 0
	}
	total := buckets[len(buckets)-1].count
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var prevCount int64
	prevLE := 0.0
	for _, b := range buckets {
		if float64(b.count) >= rank {
			if math.IsInf(b.le, 1) {
				return prevLE
			}
			inBucket := float64(b.count - prevCount)
			if inBucket <= 0 {
				return b.le
			}
			return prevLE + (b.le-prevLE)*(rank-float64(prevCount))/inBucket
		}
		prevCount = b.count
		prevLE = b.le
	}
	return prevLE
}
