package telemetry

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/masc-project/masc/internal/ringbuf"
)

// DefaultTraceCapacity is the ring-buffer size used when NewTracer is
// given a non-positive capacity.
const DefaultTraceCapacity = 128

// Tracer records correlated traces of gateway messages and process
// instances: each trace is a span tree (process → activity → VEP
// invocation → backend attempt) annotated with fault classifications
// and adaptation actions. Completed traces are retained in a ring
// buffer of fixed capacity. A nil *Tracer is a valid no-op tracer.
type Tracer struct {
	mu         sync.Mutex
	seq        uint64
	ring       *ringbuf.Buffer[*Trace]
	byInstance map[string]*Span
}

// NewTracer builds a tracer retaining the last capacity completed
// traces (DefaultTraceCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{
		ring:       ringbuf.New[*Trace](capacity),
		byInstance: make(map[string]*Span),
	}
}

// Trace is one recorded span tree.
type Trace struct {
	id      string
	tracer  *Tracer
	root    *Span
	spanSeq atomic.Uint64
}

func (tr *Trace) nextSpanID() string {
	return fmt.Sprintf("s%d", tr.spanSeq.Add(1))
}

// Note is a timestamped span annotation (e.g. a fault classification or
// an adaptation action taken).
type Note struct {
	Time time.Time `json:"time"`
	Text string    `json:"text"`
}

// Span is one timed operation within a trace. All methods are safe for
// concurrent use and nil-safe.
type Span struct {
	trace *Trace
	id    string

	mu       sync.Mutex
	name     string
	start    time.Time
	end      time.Time
	attrs    map[string]string
	notes    []Note
	errText  string
	children []*Span
	parent   *Span
}

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying the span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan starts a child of the span carried by ctx and returns a
// context carrying the child. When ctx carries no span (tracing not
// wired, or not sampled) it returns ctx and a nil span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.StartChild(name)
	return ContextWithSpan(ctx, child), child
}

// StartTrace begins a new trace rooted at a span with the given name
// and returns a context carrying the root span. Ending the root span
// completes the trace and commits it to the ring buffer.
func (t *Tracer) StartTrace(ctx context.Context, name string) (context.Context, *Span) {
	return t.StartTraceID(ctx, name, "")
}

// StartTraceID begins a trace under an externally supplied trace ID —
// used to adopt the trace context propagated in MASC SOAP headers so a
// multi-hop exchange records under one ID at every hop. An empty id
// generates a fresh sequential one.
func (t *Tracer) StartTraceID(ctx context.Context, name, id string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if id == "" {
		t.mu.Lock()
		t.seq++
		id = fmt.Sprintf("trace-%06d", t.seq)
		t.mu.Unlock()
	}

	tr := &Trace{id: id, tracer: t}
	root := &Span{trace: tr, name: name, start: time.Now()}
	root.id = tr.nextSpanID()
	tr.root = root
	return ContextWithSpan(ctx, root), root
}

// TraceID returns the span's trace ID ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.trace.id
}

// SpanID returns the span's ID, unique within its trace ("" on nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.id
}

// StartChild starts and returns a child span.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{trace: s.trace, parent: s, name: name, start: time.Now()}
	child.id = s.trace.nextSpanID()
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// SetAttr records a key/value attribute on the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// Annotate appends a timestamped note (fault classified, retry
// attempted, failover target, adaptation policy applied, ...).
func (s *Span) Annotate(format string, args ...interface{}) {
	if s == nil {
		return
	}
	text := format
	if len(args) > 0 {
		text = fmt.Sprintf(format, args...)
	}
	s.mu.Lock()
	s.notes = append(s.notes, Note{Time: time.Now(), Text: text})
	s.mu.Unlock()
}

// EndErr completes the span, recording err (when non-nil) as the span's
// error.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.end.IsZero() {
		s.mu.Unlock()
		return
	}
	s.end = time.Now()
	if err != nil {
		s.errText = err.Error()
	}
	isRoot := s.parent == nil
	s.mu.Unlock()

	if isRoot {
		s.trace.tracer.commit(s.trace)
	}
}

func (t *Tracer) commit(tr *Trace) {
	t.mu.Lock()
	t.ring.Push(tr)
	t.mu.Unlock()
}

// BindInstance associates a process instance ID with a span so that
// bus-wide events correlated only by ProcessInstanceID (the event tap)
// can be attached to the right trace.
func (t *Tracer) BindInstance(instanceID string, s *Span) {
	if t == nil || instanceID == "" || s == nil {
		return
	}
	t.mu.Lock()
	t.byInstance[instanceID] = s
	t.mu.Unlock()
}

// UnbindInstance drops an instance binding (call when the instance
// finishes).
func (t *Tracer) UnbindInstance(instanceID string) {
	if t == nil || instanceID == "" {
		return
	}
	t.mu.Lock()
	delete(t.byInstance, instanceID)
	t.mu.Unlock()
}

// InstanceSpan returns the span bound to a process instance ID, or nil.
func (t *Tracer) InstanceSpan(instanceID string) *Span {
	if t == nil || instanceID == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byInstance[instanceID]
}

// --- views ---

// SpanView is the JSON rendering of a span.
type SpanView struct {
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	End        time.Time         `json:"end"`
	DurationMS float64           `json:"durationMs"`
	Error      string            `json:"error,omitempty"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Notes      []Note            `json:"notes,omitempty"`
	Children   []SpanView        `json:"children,omitempty"`
}

// TraceView is the JSON rendering of a completed trace.
type TraceView struct {
	ID   string   `json:"id"`
	Root SpanView `json:"root"`
}

// TraceSummary is the list-endpoint rendering of a completed trace.
type TraceSummary struct {
	ID         string    `json:"id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"durationMs"`
	Spans      int       `json:"spans"`
	Error      string    `json:"error,omitempty"`
}

func (s *Span) view() (SpanView, int) {
	s.mu.Lock()
	v := SpanView{
		Name:  s.name,
		Start: s.start,
		End:   s.end,
		Error: s.errText,
	}
	if !s.end.IsZero() {
		v.DurationMS = float64(s.end.Sub(s.start)) / float64(time.Millisecond)
	}
	if len(s.attrs) > 0 {
		v.Attrs = make(map[string]string, len(s.attrs))
		for k, val := range s.attrs {
			v.Attrs[k] = val
		}
	}
	v.Notes = append([]Note(nil), s.notes...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()

	count := 1
	for _, c := range children {
		cv, n := c.view()
		v.Children = append(v.Children, cv)
		count += n
	}
	return v, count
}

// Traces returns summaries of the retained completed traces, newest
// first.
func (t *Tracer) Traces() []TraceSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	ring := t.ring.Select(nil, 0)
	t.mu.Unlock()

	out := make([]TraceSummary, 0, len(ring))
	for i := len(ring) - 1; i >= 0; i-- {
		tr := ring[i]
		rv, n := tr.root.view()
		out = append(out, TraceSummary{
			ID:         tr.id,
			Name:       rv.Name,
			Start:      rv.Start,
			DurationMS: rv.DurationMS,
			Spans:      n,
			Error:      rv.Error,
		})
	}
	return out
}

// Trace returns the full span tree of a retained completed trace.
func (t *Tracer) Trace(id string) (TraceView, bool) {
	if t == nil {
		return TraceView{}, false
	}
	t.mu.Lock()
	var found *Trace
	t.ring.Do(func(tr **Trace) bool {
		if (*tr).id != id {
			return true
		}
		found = *tr
		return false
	})
	t.mu.Unlock()
	if found == nil {
		return TraceView{}, false
	}
	rv, _ := found.root.view()
	return TraceView{ID: found.id, Root: rv}, true
}

// Len returns the number of retained completed traces.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Len()
}
