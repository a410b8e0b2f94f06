package telemetry

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/masc-project/masc/internal/event"
)

func TestTraceLifecycle(t *testing.T) {
	tr := NewTracer(4)
	ctx, root := tr.StartTrace(context.Background(), "process order")
	if root == nil || root.TraceID() == "" {
		t.Fatal("no root span")
	}
	root.SetAttr("instance", "proc-1")

	actCtx, act := StartSpan(ctx, "invoke submit")
	_, attempt := StartSpan(actCtx, "attempt inproc://a")
	attempt.Annotate("retry attempt %d", 1)
	attempt.End()
	act.End()
	if tr.Len() != 0 {
		t.Fatal("trace committed before root ended")
	}
	root.End()
	root.End() // idempotent

	if tr.Len() != 1 {
		t.Fatalf("traces = %d", tr.Len())
	}
	sums := tr.Traces()
	if len(sums) != 1 || sums[0].Spans != 3 || sums[0].Name != "process order" {
		t.Fatalf("summary = %+v", sums)
	}
	view, ok := tr.Trace(sums[0].ID)
	if !ok {
		t.Fatal("trace not found")
	}
	if view.Root.Attrs["instance"] != "proc-1" {
		t.Fatalf("root attrs = %v", view.Root.Attrs)
	}
	if len(view.Root.Children) != 1 || len(view.Root.Children[0].Children) != 1 {
		t.Fatalf("tree shape wrong: %+v", view.Root)
	}
	leaf := view.Root.Children[0].Children[0]
	if len(leaf.Notes) != 1 || leaf.Notes[0].Text != "retry attempt 1" {
		t.Fatalf("leaf notes = %v", leaf.Notes)
	}
}

func TestStartSpanWithoutTraceIsNoop(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "orphan")
	if sp != nil {
		t.Fatal("span without trace")
	}
	sp.Annotate("x")
	sp.SetAttr("k", "v")
	sp.End()
	if SpanFromContext(ctx) != nil {
		t.Fatal("ctx gained a span")
	}
}

func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartTrace(context.Background(), "x")
	if sp != nil || SpanFromContext(ctx) != nil {
		t.Fatal("nil tracer produced a span")
	}
	tr.BindInstance("i", nil)
	tr.UnbindInstance("i")
	if tr.Len() != 0 || tr.Traces() != nil {
		t.Fatal("nil tracer has traces")
	}
	if _, ok := tr.Trace("id"); ok {
		t.Fatal("nil tracer found a trace")
	}
	if un := tr.TapEventBus(event.NewBus()); un == nil {
		t.Fatal("nil unsubscribe")
	}
}

func TestRingBufferEviction(t *testing.T) {
	tr := NewTracer(2)
	var ids []string
	for i := 0; i < 3; i++ {
		_, root := tr.StartTrace(context.Background(), "t")
		ids = append(ids, root.TraceID())
		root.End()
	}
	if tr.Len() != 2 {
		t.Fatalf("len = %d", tr.Len())
	}
	if _, ok := tr.Trace(ids[0]); ok {
		t.Fatal("oldest trace not evicted")
	}
	if _, ok := tr.Trace(ids[2]); !ok {
		t.Fatal("newest trace missing")
	}
	// Newest first in summaries.
	if sums := tr.Traces(); sums[0].ID != ids[2] {
		t.Fatalf("order = %+v", sums)
	}
}

// TestTracerEvictionWrapAround commits capacity+3 traces so the ring's
// write position wraps past the end of its backing array.
func TestTracerEvictionWrapAround(t *testing.T) {
	const capacity = 4
	tr := NewTracer(capacity)
	var ids []string
	for i := 0; i < capacity+3; i++ {
		_, root := tr.StartTrace(context.Background(), "t")
		ids = append(ids, root.TraceID())
		root.End()
	}
	sums := tr.Traces()
	if len(sums) != capacity || tr.Len() != capacity {
		t.Fatalf("retained %d summaries, Len %d, want %d", len(sums), tr.Len(), capacity)
	}
	for i, s := range sums { // newest first
		if want := ids[len(ids)-1-i]; s.ID != want {
			t.Fatalf("Traces()[%d] = %s, want %s", i, s.ID, want)
		}
	}
	for i, id := range ids {
		if _, ok := tr.Trace(id); ok != (i >= 3) {
			t.Fatalf("Trace(%s) found = %v after %d evictions", id, ok, 3)
		}
	}
}

func TestEventTapAnnotatesBoundInstance(t *testing.T) {
	tr := NewTracer(4)
	eb := event.NewBus()
	defer tr.TapEventBus(eb)()

	_, root := tr.StartTrace(context.Background(), "process p")
	tr.BindInstance("proc-9", root)
	eb.Publish(event.Event{
		Type:              event.TypeFaultDetected,
		ProcessInstanceID: "proc-9",
		FaultType:         "ServiceUnreachableFault",
		Operation:         "getCatalog",
	})
	eb.Publish(event.Event{Type: event.TypeFaultDetected}) // uncorrelated: dropped
	tr.UnbindInstance("proc-9")
	eb.Publish(event.Event{Type: event.TypeFaultDetected, ProcessInstanceID: "proc-9"})
	root.End()

	view, _ := tr.Trace(root.TraceID())
	if len(view.Root.Notes) != 1 {
		t.Fatalf("notes = %v", view.Root.Notes)
	}
	n := view.Root.Notes[0].Text
	if !strings.Contains(n, "fault.detected") || !strings.Contains(n, "fault=ServiceUnreachableFault") {
		t.Fatalf("note = %q", n)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer(8)
	_, root := tr.StartTrace(context.Background(), "par")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := root.StartChild("branch")
			sp.Annotate("work")
			sp.SetAttr("k", "v")
			sp.End()
		}()
	}
	wg.Wait()
	root.End()
	sums := tr.Traces()
	if sums[0].Spans != 9 {
		t.Fatalf("spans = %d", sums[0].Spans)
	}
}

func TestHTTPHandlers(t *testing.T) {
	tel := New(4)
	tel.Metrics.Counter("up_total", "ups").With().Inc()
	_, root := tel.Tracer.StartTrace(context.Background(), "req")
	root.End()
	id := root.TraceID()

	rec := httptest.NewRecorder()
	MetricsHandler(tel.Metrics).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "up_total 1") {
		t.Fatalf("metrics body = %q", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	TracesHandler(tel.Tracer, tel.Journal).ServeHTTP(rec, httptest.NewRequest("GET", "/traces", nil))
	var sums []TraceSummary
	if err := json.Unmarshal(rec.Body.Bytes(), &sums); err != nil {
		t.Fatalf("list: %v\n%s", err, rec.Body.String())
	}
	if len(sums) != 1 || sums[0].ID != id {
		t.Fatalf("sums = %+v", sums)
	}

	rec = httptest.NewRecorder()
	TracesHandler(tel.Tracer, tel.Journal).ServeHTTP(rec, httptest.NewRequest("GET", "/traces/"+id, nil))
	var view TraceView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil || view.ID != id {
		t.Fatalf("view = %+v err = %v", view, err)
	}

	rec = httptest.NewRecorder()
	TracesHandler(tel.Tracer, tel.Journal).ServeHTTP(rec, httptest.NewRequest("GET", "/traces/nope", nil))
	if rec.Code != 404 {
		t.Fatalf("unknown trace status = %d", rec.Code)
	}
}
