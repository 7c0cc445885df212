package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing is done from outside the program: the benchmark times its own
// calls into each layer, and correlates a client request with the shard
// handler that served it through a header it sets itself.  Spans are kept in
// memory and read when the phase ends.

const spanHeader = "X-Perfbench-Span"

// handlerSpan is one request as the shard's HTTP handler saw it.
type handlerSpan struct {
	start  time.Time // handler entered
	header time.Time // first WriteHeader: decode, admission, join and pair sort are done
	end    time.Time // handler returned: the body is encoded and written
}

func (s handlerSpan) pre() time.Duration    { return s.header.Sub(s.start) }
func (s handlerSpan) encode() time.Duration { return s.end.Sub(s.header) }
func (s handlerSpan) total() time.Duration  { return s.end.Sub(s.start) }

// tracer collects handler spans by the span identifier a client sent.
type tracer struct {
	seq   atomic.Uint64
	mu    sync.Mutex
	spans map[string]handlerSpan
}

func newTracer() *tracer { return &tracer{spans: map[string]handlerSpan{}} }

func (t *tracer) newID() string { return strconv.FormatUint(t.seq.Add(1), 10) }

// take returns and forgets the span recorded for id.
func (t *tracer) take(id string) (handlerSpan, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.spans[id]
	delete(t.spans, id)
	return s, ok
}

// wrap records a span for every request that carries the span header and
// passes the others through untouched.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(spanHeader)
		if id == "" {
			h.ServeHTTP(w, r)
			return
		}
		sw := &spanWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r)
		end := time.Now()
		if sw.header.IsZero() {
			sw.header = end
		}
		t.mu.Lock()
		t.spans[id] = handlerSpan{start: start, header: sw.header, end: end}
		t.mu.Unlock()
	})
}

type spanWriter struct {
	http.ResponseWriter
	header time.Time
}

func (w *spanWriter) WriteHeader(code int) {
	if w.header.IsZero() {
		w.header = time.Now()
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *spanWriter) Write(b []byte) (int, error) {
	if w.header.IsZero() {
		w.header = time.Now()
	}
	return w.ResponseWriter.Write(b)
}

// wireLog pairs the client's timing of each traced POST /join with the
// handler span that served it.
type wireLog struct {
	mu      sync.Mutex
	timings []wireTiming
	spans   []handlerSpan
}

func (l *wireLog) add(tr *tracer, t wireTiming) {
	span, ok := tr.take(t.span)
	if !ok {
		return
	}
	l.mu.Lock()
	l.timings = append(l.timings, t)
	l.spans = append(l.spans, span)
	l.mu.Unlock()
}

// report fills the wire and handler metrics; pairs is the pair count of
// every answer (0 for count-only requests).
func (l *wireLog) report(m map[string]float64, pairs int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	var ttfb, transfer, decode, pre, enc []time.Duration
	for i, t := range l.timings {
		ttfb = append(ttfb, t.ttfb)
		transfer = append(transfer, t.transfer)
		decode = append(decode, t.decode)
		pre = append(pre, l.spans[i].pre())
		enc = append(enc, l.spans[i].encode())
		m["wire.bytes_per_pair"] += ratio(float64(t.bytes), float64(pairs)) / float64(len(l.timings))
	}
	m["ttfb_p50_ms"] = quantileMS(ttfb, 0.5)
	m["wire.transfer_ms"] = quantileMS(transfer, 0.5)
	m["wire.decode_ms"] = quantileMS(decode, 0.5)
	m["server.handler_pre_ms"] = quantileMS(pre, 0.5)
	m["wire.encode_ms"] = quantileMS(enc, 0.5)
}

// shardCall is one HTTP request the router sent to a shard, as the
// round-tripper saw it.
type shardCall struct {
	host, path, id string
	sent           time.Time // RoundTrip entered
	headers        time.Time // response headers arrived
	bytes          atomic.Int64
}

// callLog gathers the shard calls one router.Join made; it travels in the
// join's context, which the router passes on to every shard request.
type callLog struct {
	mu    sync.Mutex
	calls []*shardCall
}

type callLogKey struct{}

func withCallLog(ctx context.Context, l *callLog) context.Context {
	return context.WithValue(ctx, callLogKey{}, l)
}

// tracingTransport tags every shard request made under a call log with a
// span header and counts its response bytes.
type tracingTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (tt *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	log, _ := req.Context().Value(callLogKey{}).(*callLog)
	if log == nil {
		return tt.base.RoundTrip(req)
	}
	call := &shardCall{host: req.URL.Host, path: req.URL.Path, id: tt.t.newID(), sent: time.Now()}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, call.id)
	resp, err := tt.base.RoundTrip(req)
	call.headers = time.Now()
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &call.bytes}
	}
	log.mu.Lock()
	log.calls = append(log.calls, call)
	log.mu.Unlock()
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// newClient returns the HTTP client every workload uses; with a tracer its
// transport tags requests made under a call log.
func newClient(t *tracer) *http.Client {
	base := &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}
	if t == nil {
		return &http.Client{Transport: base}
	}
	return &http.Client{Transport: &tracingTransport{base: base, t: t}}
}

func closeClient(c *http.Client) {
	switch tr := c.Transport.(type) {
	case *http.Transport:
		tr.CloseIdleConnections()
	case *tracingTransport:
		tr.base.(*http.Transport).CloseIdleConnections()
	}
}
