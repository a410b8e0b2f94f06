package bus

import (
	"context"
	"strings"
	"testing"

	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/xmltree"
)

// bareReq builds a request with no correlation headers at all.
func bareReq(t *testing.T) *soap.Envelope {
	t.Helper()
	p, err := xmltree.ParseString(`<getCatalog xmlns="urn:scm"><category>tv</category></getCatalog>`)
	if err != nil {
		t.Fatal(err)
	}
	return soap.NewRequest(p)
}

func TestExchangeJournaledWithGeneratedConversation(t *testing.T) {
	svc := &scriptedService{}
	b, _, tel := telemetryBus(t, "", map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})

	req := bareReq(t)
	resp, err := b.Invoke(context.Background(), "vep:Retailer", req)
	if err != nil || resp.IsFault() {
		t.Fatalf("resp=%v err=%v", resp, err)
	}

	// The gateway stamped a conversation ID on the request and response.
	conv := ConversationIDOf(req)
	if conv == "" || !strings.HasPrefix(conv, "urn:masc:conv:") {
		t.Fatalf("request conversation = %q, want generated urn:masc:conv:*", conv)
	}
	if got := ConversationIDOf(resp); got != conv {
		t.Fatalf("response conversation = %q, want %q", got, conv)
	}

	msgs := tel.Logs().Entries(telemetry.Query{Kinds: []telemetry.Kind{telemetry.KindMessage}})
	if len(msgs) != 1 {
		t.Fatalf("message entries = %d, want 1", len(msgs))
	}
	e := msgs[0]
	if e.Conversation != conv || e.Component != "bus" || e.Level != telemetry.LevelInfo {
		t.Fatalf("message entry = %+v", e)
	}
	for k, want := range map[string]string{
		"vep": "Retailer", "operation": "getCatalog", "target": "inproc://a",
		"outcome": "ok", "attempts": "1", "request": "getCatalog", "response": "getCatalogResponse",
	} {
		if e.Fields[k] != want {
			t.Errorf("field %s = %q, want %q", k, e.Fields[k], want)
		}
	}
	if e.Fields["latency_ms"] == "" {
		t.Error("latency_ms missing")
	}

	// The attempt left a correlated log line too.
	logs := tel.Logs().Entries(telemetry.Query{Conversation: conv, Kinds: []telemetry.Kind{telemetry.KindLog}})
	if len(logs) != 1 || !strings.Contains(logs[0].Message, "attempt inproc://a") {
		t.Fatalf("attempt log lines = %+v", logs)
	}
}

func TestExchangeJournalExistingConversationPreserved(t *testing.T) {
	svc := &scriptedService{}
	b, _, tel := telemetryBus(t, "", map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})

	req := catalogReq(t) // carries ProcessInstanceID proc-1
	if _, err := b.Invoke(context.Background(), "vep:Retailer", req); err != nil {
		t.Fatal(err)
	}
	msgs := tel.Logs().Entries(telemetry.Query{Kinds: []telemetry.Kind{telemetry.KindMessage}})
	if len(msgs) != 1 || msgs[0].Conversation != "proc-1" {
		t.Fatalf("message entries = %+v, want conversation proc-1", msgs)
	}
}

func TestRecoveredExchangeJournalAndAudit(t *testing.T) {
	bad := &scriptedService{failFor: 1000}
	good := &scriptedService{}
	b, _, tel := telemetryBus(t, retryThenFailoverXML, map[string]*scriptedService{
		"inproc://a": bad,
		"inproc://b": good,
	}, VEPConfig{Selection: policy.SelectFirst})

	ctx, root := tel.Tracer.StartTrace(context.Background(), "gateway request")
	req := catalogReq(t)
	resp, err := b.Invoke(ctx, "vep:Retailer", req)
	if err != nil || resp.IsFault() {
		t.Fatalf("resp=%v err=%v", resp, err)
	}
	root.EndErr(nil)

	j := tel.Logs()
	msgs := j.Entries(telemetry.Query{Conversation: "proc-1", Kinds: []telemetry.Kind{telemetry.KindMessage}})
	if len(msgs) != 1 {
		t.Fatalf("message entries = %d, want 1", len(msgs))
	}
	e := msgs[0]
	// initial + 2 retries on a + failover attempt on b.
	if e.Fields["attempts"] != "4" || e.Fields["target"] != "inproc://b" || e.Fields["outcome"] != "ok" {
		t.Fatalf("recovered exchange fields = %+v", e.Fields)
	}
	if e.Trace != root.TraceID() || e.Trace == "" {
		t.Fatalf("message entry trace = %q, want %q", e.Trace, root.TraceID())
	}

	audits := j.Entries(telemetry.Query{Conversation: "proc-1", Kinds: []telemetry.Kind{telemetry.KindAudit}})
	var sawFault, sawAdaptation bool
	for _, a := range audits {
		switch {
		case a.Component == "monitor" && a.Fields["fault_type"] == "ServiceUnavailableFault":
			sawFault = true
		case a.Component == "bus" && a.Fields["policy"] == "retry-then-failover":
			sawAdaptation = true
			if a.Fields["failed_target"] != "inproc://a" || a.Fields["served_by"] != "inproc://b" {
				t.Fatalf("adaptation audit fields = %+v", a.Fields)
			}
		}
	}
	if !sawFault || !sawAdaptation {
		t.Fatalf("audit trail incomplete (fault=%v adaptation=%v): %+v", sawFault, sawAdaptation, audits)
	}

	// Attempt log lines share the trace of the exchange.
	logs := j.Entries(telemetry.Query{Trace: root.TraceID(), Kinds: []telemetry.Kind{telemetry.KindLog}})
	if len(logs) != 4 {
		t.Fatalf("attempt log lines = %d, want 4", len(logs))
	}
}

func TestFaultResponseCarriesConversation(t *testing.T) {
	svc := &scriptedService{failFor: 1000, errMode: "fault"}
	b, _, _ := telemetryBus(t, "", map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})

	req := bareReq(t)
	resp, err := b.Invoke(context.Background(), "vep:Retailer", req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IsFault() {
		t.Fatal("expected fault response")
	}
	conv := ConversationIDOf(req)
	if conv == "" {
		t.Fatal("request conversation missing")
	}
	// The fault envelope came back from the service without headers;
	// the VEP propagated the conversation so callers can correlate it.
	if got := ConversationIDOf(resp); got != conv {
		t.Fatalf("fault response conversation = %q, want %q", got, conv)
	}
}

func TestTraceContextStampedOnDownstreamRequests(t *testing.T) {
	var seenTrace, seenSpan string
	svc := &scriptedService{respond: func(req *soap.Envelope) *soap.Envelope {
		seenTrace, seenSpan = soap.TraceContext(req)
		op := req.PayloadName().Local
		return soap.NewRequest(xmltree.New("urn:scm", op+"Response"))
	}}
	b, _, tel := telemetryBus(t, "", map[string]*scriptedService{"inproc://a": svc}, VEPConfig{})

	ctx, root := tel.Tracer.StartTrace(context.Background(), "gateway request")
	if _, err := b.Invoke(ctx, "vep:Retailer", catalogReq(t)); err != nil {
		t.Fatal(err)
	}
	root.EndErr(nil)

	if seenTrace != root.TraceID() || seenTrace == "" {
		t.Fatalf("downstream saw trace %q, want %q", seenTrace, root.TraceID())
	}
	if seenSpan == "" {
		t.Fatal("downstream saw no span ID")
	}
}
