package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// ExpositionContentType is the Content-Type of the Prometheus text
// exposition format, the only representation /metrics serves.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// Exposition writes one Prometheus text exposition document. It owns
// the format — headers, label escaping, value rendering, histogram
// series — and nothing else: callers choose the family order, so equal
// snapshots render byte-equal documents (golden-tested by both
// daemons). Labels are alternating key, value pairs in output order.
// The first write error sticks; later writes are skipped and Err
// reports it.
type Exposition struct {
	w   io.Writer
	err error
}

// NewExposition returns a writer over w.
func NewExposition(w io.Writer) *Exposition { return &Exposition{w: w} }

// Err reports the first write error.
func (e *Exposition) Err() error { return e.err }

func (e *Exposition) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}

// Family writes the HELP and TYPE header of a metric family.
func (e *Exposition) Family(name, typ, help string) {
	e.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Int writes one sample with an integer value.
func (e *Exposition) Int(name string, v int64, labels ...string) {
	e.sample(name, strconv.FormatInt(v, 10), labels)
}

// Float writes one sample with a float value in its shortest
// round-trip form.
func (e *Exposition) Float(name string, v float64, labels ...string) {
	e.sample(name, strconv.FormatFloat(v, 'g', -1, 64), labels)
}

// Counter writes a counter family holding one unlabelled sample.
func (e *Exposition) Counter(name, help string, v int64) {
	e.Family(name, "counter", help)
	e.Int(name, v)
}

// Gauge writes a gauge family holding one unlabelled integer sample.
func (e *Exposition) Gauge(name, help string, v int64) {
	e.Family(name, "gauge", help)
	e.Int(name, v)
}

// ByLabel writes one sample per entry of values, in key order, with the
// key as the value of label (after any fixed labels).
func (e *Exposition) ByLabel(name, label string, values map[string]int64, labels ...string) {
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	kv := append(labels[:len(labels):len(labels)], label, "")
	for _, k := range keys {
		kv[len(kv)-1] = k
		e.Int(name, values[k], kv...)
	}
}

// Histogram writes one histogram series (no header): the cumulative
// buckets in ascending bound order closed by le="+Inf", then _sum and
// _count. labels apply to every sample and precede le.
func (e *Exposition) Histogram(name string, h HistogramSnapshot, labels ...string) {
	bounds := make([]string, 0, len(h.Buckets))
	for ub := range h.Buckets {
		if ub != "+Inf" {
			bounds = append(bounds, ub)
		}
	}
	sort.Slice(bounds, func(i, j int) bool {
		a, _ := strconv.ParseFloat(bounds[i], 64)
		b, _ := strconv.ParseFloat(bounds[j], 64)
		return a < b
	})
	le := append(labels[:len(labels):len(labels)], "le", "")
	for _, ub := range append(bounds, "+Inf") {
		le[len(le)-1] = ub
		e.Int(name+"_bucket", h.Buckets[ub], le...)
	}
	e.Float(name+"_sum", h.Sum, labels...)
	e.Int(name+"_count", h.Count, labels...)
}

// Tracer writes the request-tracer counter families under prefix.
func (e *Exposition) Tracer(prefix string, ts TracerStats) {
	e.Counter(prefix+"_trace_requests_total", "Requests seen by the tracer.", ts.RequestsSeen)
	e.Counter(prefix+"_traces_sampled_total", "Requests sampled into a trace.", ts.Sampled)
	e.Counter(prefix+"_traces_finished_total", "Traces completed into the ring buffer.", ts.Finished)
	e.Counter(prefix+"_trace_spans_dropped_total", "Spans dropped by the per-trace cap.", ts.SpansDropped)
	e.Counter(prefix+"_traces_evicted_total", "Completed traces evicted from the ring buffer.", ts.Evicted)
	e.Gauge(prefix+"_traces_buffered", "Completed traces currently retained.", int64(ts.Buffered))
}

// Journal writes prefix_journal_events_total with one sample per event
// kind. Journal.Counts holds every kind, so the family is exhaustive
// even before the first event.
func (e *Exposition) Journal(prefix string, counts map[string]int64) {
	name := prefix + "_journal_events_total"
	e.Family(name, "counter", "Structured journal events recorded, by kind.")
	e.ByLabel(name, "kind", counts)
}

func (e *Exposition) sample(name, value string, labels []string) {
	if len(labels) == 0 {
		e.printf("%s %s\n", name, value)
		return
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteString("} ")
	b.WriteString(value)
	b.WriteByte('\n')
	e.printf("%s", b.String())
}

// labelEscaper escapes a label value per the exposition format:
// backslash, double quote and newline.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
