package main

import (
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records spans from the benchmark's own code around the
// calls into each layer: the client around each request, a wrapper
// around the router's http.Handler, a wrapper around each backend's
// http.Handler, and on sweep-grid a wrapper around sweep.EvalCell plus
// the checkpoint hook. Spans stay in memory until the run ends.

// requestIDHeader links the spans of one request: the client sets it
// and the router forwards it to the backend with the other headers.
const requestIDHeader = "X-Request-Id"

// layer names the span's layer.
type layer uint8

const (
	layerClient layer = iota
	layerRouter
	layerBackend
)

// interval is a span's [start, end) in nanoseconds since the run's
// time base.
type interval struct{ start, end int64 }

func (iv interval) dur() int64 { return iv.end - iv.start }

// clip returns the part of iv inside to (empty when they are disjoint).
func (iv interval) clip(to interval) interval {
	iv.start = max(iv.start, to.start)
	iv.end = min(iv.end, to.end)
	if iv.end < iv.start {
		iv.end = iv.start
	}
	return iv
}

// selfTime is the duration of parent minus the part of it covered by
// the union of children, each clipped to parent. Overlapping children
// (a retried or fanned-out request, cells on parallel workers) count
// once.
func selfTime(parent interval, children []interval) int64 {
	return parent.dur() - covered(parent, children)
}

// covered is the length of the union of children clipped to parent.
func covered(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c = c.clip(parent); c.dur() > 0 {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			total += cur.dur()
			cur = c
		}
	}
	if len(clipped) > 0 {
		total += cur.dur()
	}
	return total
}

// span is one recorded serving span; id is the request ID. (sweep-grid
// keeps its cell and checkpoint spans per pass, in sweepgrid.go.)
type span struct {
	id     uint64
	layer  layer
	iv     interval
	status int   // HTTP status written by the wrapped handler
	bytes  int64 // response bytes written by the wrapped handler
}

// spanLog collects spans while on is set.
type spanLog struct {
	base time.Time
	on   atomic.Bool
	mu   sync.Mutex
	all  []span
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) now() int64 { return int64(time.Since(l.base)) }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.all = append(l.all, s)
	l.mu.Unlock()
}

// spans returns the recorded spans and clears the log.
func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.all
	l.all = nil
	return out
}

// wrap records one span per request that carries a request ID while
// tracing is on; other requests (health probes) pass through.
func (l *spanLog) wrap(ly layer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		id, err := strconv.ParseUint(r.Header.Get(requestIDHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := l.now()
		next.ServeHTTP(cw, r)
		status := cw.status
		if status == 0 {
			status = http.StatusOK
		}
		l.add(span{id: id, layer: ly, iv: interval{start, l.now()}, status: status, bytes: cw.bytes})
	})
}

// countingWriter records the status and body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *countingWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *countingWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// requestTrace is one request's linked spans.
type requestTrace struct {
	client   interval
	router   interval
	backends []interval
	shed     bool // a backend answered 429
	relayed  int64
}

// partition splits the client span into client self time, router
// self time and the time the backends cover. The parts add up to the
// client span once the router span is clipped to the client span and
// each backend span to the clipped router span. A handler that writes
// its body straight to the socket can return after its caller has read
// it, so a little clipping is normal; clipped is what it discarded.
func (r requestTrace) partition() (clientSelf, routerSelf, service, clipped int64) {
	router := r.router.clip(r.client)
	clipped = r.router.dur() - router.dur()
	for _, b := range r.backends {
		clipped += b.dur() - b.clip(router).dur()
	}
	routerSelf = selfTime(router, r.backends)
	return selfTime(r.client, []interval{router}), routerSelf, router.dur() - routerSelf, clipped
}

// linkRequests groups serving spans by request ID. Requests missing
// their client or router span are counted as unlinked.
func linkRequests(spans []span) (linked []requestTrace, unlinked int) {
	type parts struct {
		client, router *span
		backends       []interval
		shed           bool
	}
	byID := map[uint64]*parts{}
	for i := range spans {
		s := &spans[i]
		p := byID[s.id]
		if p == nil {
			p = &parts{}
			byID[s.id] = p
		}
		switch s.layer {
		case layerClient:
			p.client = s
		case layerRouter:
			p.router = s
		case layerBackend:
			p.backends = append(p.backends, s.iv)
			if s.status == http.StatusTooManyRequests {
				p.shed = true
			}
		}
	}
	for _, p := range byID {
		if p.client == nil || p.router == nil || len(p.backends) == 0 {
			unlinked++
			continue
		}
		linked = append(linked, requestTrace{
			client: p.client.iv, router: p.router.iv, backends: p.backends,
			shed: p.shed, relayed: p.router.bytes,
		})
	}
	return linked, unlinked
}
