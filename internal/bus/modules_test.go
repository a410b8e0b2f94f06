package bus

import (
	"context"
	"errors"
	"regexp"
	"sync"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/qos"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/xmltree"
)

func mcWith(t *testing.T, reqDoc string) *MessageContext {
	t.Helper()
	p, err := xmltree.ParseString(reqDoc)
	if err != nil {
		t.Fatal(err)
	}
	return &MessageContext{
		VEP:       "Retailer",
		Operation: "getCatalog",
		Request:   soap.NewRequest(p),
		Meta:      map[string]string{},
	}
}

func TestPipelineOrdering(t *testing.T) {
	var order []string
	mk := func(name string) Module {
		return &AdaptationModule{
			Name: name,
			RequestTransforms: []Transform{func(*xmltree.Element) error {
				order = append(order, "req:"+name)
				return nil
			}},
			ResponseTransforms: []Transform{func(*xmltree.Element) error {
				order = append(order, "resp:"+name)
				return nil
			}},
		}
	}
	var p Pipeline
	p.Append(mk("A"))
	p.Append(mk("B"))

	mc := mcWith(t, `<getCatalog/>`)
	if err := p.RunRequest(mc); err != nil {
		t.Fatal(err)
	}
	mc.Response = soap.NewRequest(xmltree.New("", "resp"))
	if err := p.RunResponse(mc); err != nil {
		t.Fatal(err)
	}
	want := []string{"req:A", "req:B", "resp:B", "resp:A"}
	for i, w := range want {
		if order[i] != w {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPipelineErrorAborts(t *testing.T) {
	var p Pipeline
	p.Append(&AdaptationModule{
		Name: "boom",
		RequestTransforms: []Transform{func(*xmltree.Element) error {
			return errors.New("transform failed")
		}},
	})
	mc := mcWith(t, `<getCatalog/>`)
	err := p.RunRequest(mc)
	if err == nil || !errorsContains(err, "boom") {
		t.Fatalf("err = %v", err)
	}
}

func errorsContains(err error, substr string) bool {
	return err != nil && regexp.MustCompile(regexp.QuoteMeta(substr)).MatchString(err.Error())
}

func TestTransforms(t *testing.T) {
	payload, _ := xmltree.ParseString(`<order><oldName>1</oldName><drop>x</drop></order>`)

	if err := RenameElements(map[string]string{"oldName": "newName"})(payload); err != nil {
		t.Fatal(err)
	}
	if payload.Child("", "newName") == nil {
		t.Fatal("rename failed")
	}

	// A module runs its transforms in order and stops at the first
	// error, which names the failure.
	var ran []string
	m := &AdaptationModule{RequestTransforms: []Transform{
		func(p *xmltree.Element) error {
			ran = append(ran, "add")
			p.Append(xmltree.NewText("", "added", "v"))
			return nil
		},
		func(*xmltree.Element) error {
			ran = append(ran, "fail")
			return errors.New("source down")
		},
		func(*xmltree.Element) error {
			ran = append(ran, "after")
			return nil
		},
	}}
	mc := &MessageContext{Request: soap.NewRequest(payload)}
	if err := m.ProcessRequest(mc); err == nil || !errorsContains(err, "source down") {
		t.Fatalf("err = %v, want the failing transform's error", err)
	}
	if payload.ChildText("", "added") != "v" || len(ran) != 2 {
		t.Fatalf("ran %v, payload %v", ran, payload)
	}
}

func TestValidatorModule(t *testing.T) {
	v := &ValidatorModule{Contract: scmContract()}
	ok := mcWith(t, `<getCatalog xmlns="urn:scm"><category>tv</category></getCatalog>`)
	if err := v.ProcessRequest(ok); err != nil {
		t.Fatal(err)
	}
	bad := mcWith(t, `<bogus xmlns="urn:scm"/>`)
	if err := v.ProcessRequest(bad); err == nil {
		t.Fatal("invalid request passed validation")
	}
	// Nil response passes.
	if err := v.ProcessResponse(ok); err != nil {
		t.Fatal(err)
	}
}

func TestMessageLoggerBounds(t *testing.T) {
	l := NewMessageLogger(time.Now, 2)
	for i := 0; i < 5; i++ {
		l.ProcessRequest(mcWith(t, `<getCatalog/>`)) //nolint:errcheck
	}
	if got := len(l.Entries()); got != 2 {
		t.Fatalf("entries = %d, want bounded 2", got)
	}
}

// TestMessageLoggerEvictionWrapAround logs capacity+3 messages so the
// write position wraps; the log keeps the newest, oldest first.
func TestMessageLoggerEvictionWrapAround(t *testing.T) {
	const capacity = 4
	tick := 0
	l := NewMessageLogger(func() time.Time {
		tick++
		return time.Unix(int64(tick), 0)
	}, capacity)
	for i := 0; i < capacity+3; i++ {
		l.ProcessRequest(mcWith(t, `<getCatalog/>`)) //nolint:errcheck
	}
	got := l.Entries()
	if len(got) != capacity {
		t.Fatalf("entries = %d, want %d", len(got), capacity)
	}
	for i, e := range got {
		if want := time.Unix(int64(4+i), 0); !e.Time.Equal(want) {
			t.Fatalf("Entries()[%d].Time = %v, want %v", i, e.Time, want)
		}
	}
}

// --- selection ---

func TestSelectorsOrder(t *testing.T) {
	candidates := []string{"a", "b", "c"}

	first := newSelector(policy.SelectFirst, nil, 1, 1)
	if got := first.order(candidates); got[0] != "a" || len(got) != 3 {
		t.Fatalf("first = %v", got)
	}

	rr := newSelector(policy.SelectRoundRobin, nil, 1, 1)
	o1 := rr.order(candidates)
	o2 := rr.order(candidates)
	o3 := rr.order(candidates)
	o4 := rr.order(candidates)
	if o1[0] != "a" || o2[0] != "b" || o3[0] != "c" || o4[0] != "a" {
		t.Fatalf("round robin heads = %s %s %s %s", o1[0], o2[0], o3[0], o4[0])
	}
	if len(o2) != 3 || o2[1] != "c" || o2[2] != "a" {
		t.Fatalf("rotation = %v", o2)
	}

	rnd := newSelector(policy.SelectRandom, nil, 1, 42)
	got := rnd.order(candidates)
	if len(got) != 3 {
		t.Fatalf("random = %v", got)
	}
	// Deterministic per seed.
	rnd2 := newSelector(policy.SelectRandom, nil, 1, 42)
	got2 := rnd2.order(candidates)
	for i := range got {
		if got[i] != got2[i] {
			t.Fatal("random selector not deterministic per seed")
		}
	}
}

func TestBestQoSSelectorOrdering(t *testing.T) {
	tracker := qos.NewTracker(0)
	tracker.Record("slow", 50*time.Millisecond, true)
	tracker.Record("fast", 5*time.Millisecond, true)

	sel := newSelector(policy.SelectBestResponseTime, tracker, 1, 1)
	got := sel.order([]string{"slow", "fast", "unknown"})
	// Unknown explored first, then fastest known.
	if got[0] != "unknown" || got[1] != "fast" || got[2] != "slow" {
		t.Fatalf("order = %v", got)
	}
}

func TestSelectorsEmptyCandidates(t *testing.T) {
	for _, kind := range []policy.SelectionKind{
		policy.SelectFirst, policy.SelectRoundRobin,
		policy.SelectRandom, policy.SelectBestResponseTime,
	} {
		sel := newSelector(kind, nil, 1, 1)
		if got := sel.order(nil); len(got) != 0 {
			t.Fatalf("%s on empty = %v", kind, got)
		}
	}
}

// --- listener pool ---

func TestListenerWorkerPool(t *testing.T) {
	inner := transport.InvokerFunc(func(_ context.Context, _ string, req *soap.Envelope) (*soap.Envelope, error) {
		return soap.NewRequest(xmltree.New("", "ok")), nil
	})
	l := NewListener(inner, 4)
	defer l.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := l.Invoke(context.Background(), "x", soap.NewRequest(xmltree.New("", "m")))
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestListenerSpawnMode(t *testing.T) {
	inner := transport.InvokerFunc(func(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
		return soap.NewRequest(xmltree.New("", "ok")), nil
	})
	l := NewListener(inner, 0)
	defer l.Close()
	if _, err := l.Invoke(context.Background(), "x", soap.NewRequest(xmltree.New("", "m"))); err != nil {
		t.Fatal(err)
	}
}

func TestListenerContextCancel(t *testing.T) {
	blocked := transport.InvokerFunc(func(ctx context.Context, _ string, _ *soap.Envelope) (*soap.Envelope, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	l := NewListener(blocked, 1)
	defer l.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := l.Invoke(ctx, "x", soap.NewRequest(xmltree.New("", "m"))); err == nil {
		t.Fatal("cancelled invoke succeeded")
	}
}

func TestListenerCloseIdempotent(t *testing.T) {
	inner := transport.InvokerFunc(func(context.Context, string, *soap.Envelope) (*soap.Envelope, error) {
		return nil, nil
	})
	l := NewListener(inner, 2)
	l.Close()
	l.Close()
}
