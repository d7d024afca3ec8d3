package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"typepre/internal/phr"
)

// Tracing for the per-layer run. Spans are recorded only from the
// benchmark's own files: around the generator's calls (the client span),
// around the phr.Server behind an http.Handler (the handler span) and
// around every call into the phr.Backend the service was built on (the
// store spans). The program itself is not instrumented. Recording a span
// costs a clock read and a locked append, so tracing adds little to the
// layers it times.

// kind names a span.
type kind uint8

var kindNames []string

func newKind(name string) kind {
	kindNames = append(kindNames, name)
	return kind(len(kindNames) - 1)
}

var (
	kNone      = newKind("")
	kClient    = newKind("client")
	kHandler   = newKind("httpapi.handler")
	kStoreGet  = newKind("store.get")
	kStorePut  = newKind("store.put")
	kStoreList = newKind("store.list")
	kReplay    = newKind("replay")
)

// span is one timed interval. req is the schedule index of the request it
// belongs to (spans of one request share it, -1 for none); parent is the
// kind of the enclosing span of the same request; key names the record or
// stream a store span touched. Times are ns since the window start.
type span struct {
	req          int32
	kind, parent kind
	bytes        int32 // response bytes, handler spans only
	key          string
	start, end   int64
}

func (s span) interval() interval { return interval{s.start, s.end} }

// tracer keeps spans in memory while the window runs.
type tracer struct {
	on atomic.Bool
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{spans: make([]span, 0, 1<<16)}
}

// ns is t as nanoseconds since the window start.
func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

func (t *tracer) add(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far. A handler's span is added
// after its response is written, so one may land after the window closes.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// attribute assigns each store span to its request. phr.Backend calls
// carry no request context, so a store span belongs to the handler span
// that encloses it and names the same record or stream (keyOf gives a
// request's key); with at most two requests in flight that is unique but
// for two concurrent reads of one record, which do the same work.
func attribute(spans []span, keyOf func(req int32) string) {
	handlers := map[string][]int{}
	for i, s := range spans {
		if s.kind == kHandler {
			k := keyOf(s.req)
			handlers[k] = append(handlers[k], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.parent != kHandler {
			continue
		}
		for _, h := range handlers[s.key] {
			if p := spans[h]; p.start <= s.start && s.end <= p.end {
				s.req = p.req
				break
			}
		}
	}
}

// store records a store span that started at start and ends now.
func (t *tracer) store(k kind, key string, start time.Time) {
	if !t.on.Load() {
		return
	}
	t.add(span{req: -1, kind: k, parent: kHandler, key: key, start: t.ns(start), end: t.ns(time.Now())})
}

// reqHeader carries the schedule index (plus one) of a traced request.
const reqHeader = "X-Bench-Request"

// reqTag is the request a generator connection is sending right now.
type reqTag struct{ id atomic.Int64 }

// taggingTransport stamps each request with its connection's current tag.
type taggingTransport struct {
	next http.RoundTripper
	tag  *reqTag
}

func (t *taggingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id := t.tag.id.Load(); id != 0 {
		r = r.Clone(r.Context())
		r.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	return t.next.RoundTrip(r)
}

// tracedHandler times the phr.Server behind its http.Handler seam.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 32)
	if err != nil || !h.tr.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	defer func() {
		h.tr.add(span{req: int32(id - 1), kind: kHandler, parent: kClient, bytes: int32(cw.n), start: h.tr.ns(start), end: h.tr.ns(time.Now())})
	}()
	h.next.ServeHTTP(cw, r)
}

// countingWriter counts response bytes. It keeps http.Flusher so the
// streaming handlers flush frames exactly as they do untraced.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// tracedBackend times the phr.Backend calls the service makes while
// serving the workloads; the rest pass straight through.
type tracedBackend struct {
	phr.Backend
	tr *tracer
}

func (b *tracedBackend) Get(id string) (*phr.EncryptedRecord, error) {
	defer b.tr.store(kStoreGet, id, time.Now())
	return b.Backend.Get(id)
}

func (b *tracedBackend) Put(r *phr.EncryptedRecord) error {
	defer b.tr.store(kStorePut, r.ID, time.Now())
	return b.Backend.Put(r)
}

func (b *tracedBackend) ListByPatientCategory(p string, c phr.Category) ([]*phr.EncryptedRecord, error) {
	defer b.tr.store(kStoreList, streamKey(p, c), time.Now())
	return b.Backend.ListByPatientCategory(p, c)
}

// streamKey names the (patient, category) a stream lists.
func streamKey(patient string, c phr.Category) string { return patient + "\x00" + string(c) }

// writeSpans saves spans as CSV, one line each.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "request,name,parent,start_ns,end_ns,bytes")
	for _, s := range spans {
		fmt.Fprintf(bw, "%d,%s,%s,%d,%d,%d\n", s.req, kindNames[s.kind], kindNames[s.parent], s.start, s.end, s.bytes)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
