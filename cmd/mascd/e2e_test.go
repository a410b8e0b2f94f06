package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"github.com/masc-project/masc/internal/daemon"
	"github.com/masc-project/masc/internal/scm"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/transport"
)

// journalEntry mirrors the telemetry.Entry JSON shape the endpoints
// serve, with the level decoded as its name.
type journalEntry struct {
	Level        string            `json:"level"`
	Kind         string            `json:"kind"`
	Component    string            `json:"component"`
	Message      string            `json:"message"`
	Conversation string            `json:"conversation"`
	Trace        string            `json:"trace"`
	Fields       map[string]string `json:"fields"`
}

func getJournal(t *testing.T, srv *httptest.Server, path string) []journalEntry {
	t.Helper()
	hr, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("GET %s status = %d", path, hr.StatusCode)
	}
	var page struct {
		Count   int            `json:"count"`
		Entries []journalEntry `json:"entries"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&page); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	if page.Count != len(page.Entries) {
		t.Fatalf("GET %s count = %d, entries = %d", path, page.Count, len(page.Entries))
	}
	return page.Entries
}

// TestGatewayExchangeFullyCorrelated drives one SOAP request through
// the HTTP gateway with a recovery (retry on a dead backend, then
// failover) and asserts the exchange record, its log lines, and the
// SLA/fault audit trail all share the correlation ID of the trace at
// /traces/{id}.
func TestGatewayExchangeFullyCorrelated(t *testing.T) {
	_, srv := bootDeadFirst(t, daemon.Config{})

	inv := &transport.HTTPInvoker{}
	req := soap.NewRequest(scm.NewGetCatalogRequest("tv", 0))
	soap.Addressing{To: "vep:Retailer", Action: "getCatalog"}.Apply(req)
	resp, err := inv.Invoke(context.Background(), srv.URL+"/vep/Retailer", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.IsFault() {
		t.Fatalf("fault after failover: %v", resp.Fault)
	}

	// The response carries the gateway-assigned conversation ID: the
	// master correlation key across journal, logs, audit, and trace.
	conv := soap.ConversationID(resp)
	if !strings.HasPrefix(conv, "urn:masc:conv:") {
		t.Fatalf("response conversation = %q", conv)
	}
	q := "?conversation=" + url.QueryEscape(conv)

	// /messages holds the exchange record: recovered outcome, both
	// attempts counted.
	msgs := getJournal(t, srv, "/api/v1/messages"+q)
	if len(msgs) != 1 {
		t.Fatalf("messages = %+v", msgs)
	}
	m := msgs[0]
	if m.Kind != "message" || m.Component != "bus" || m.Conversation != conv {
		t.Fatalf("message entry = %+v", m)
	}
	if m.Fields["outcome"] != "ok" || m.Fields["vep"] != "Retailer" || m.Fields["operation"] != "getCatalog" {
		t.Fatalf("message fields = %+v", m.Fields)
	}
	if n, _ := strconv.Atoi(m.Fields["attempts"]); n < 3 { // initial + retry + failover
		t.Fatalf("attempts = %q, want >= 3", m.Fields["attempts"])
	}

	// /logs holds the per-attempt log lines and the audit trail.
	logs := getJournal(t, srv, "/api/v1/logs"+q)
	var attemptLines, monitorAudits int
	var adaptation *journalEntry
	for i, e := range logs {
		if e.Conversation != conv {
			t.Fatalf("log entry without conversation: %+v", e)
		}
		switch {
		case e.Kind == "log" && e.Component == "bus" && strings.HasPrefix(e.Message, "attempt "):
			attemptLines++
		case e.Kind == "audit" && e.Component == "monitor":
			monitorAudits++
		case e.Kind == "audit" && e.Fields["policy"] == "retry-then-failover":
			adaptation = &logs[i]
		}
	}
	if attemptLines < 3 {
		t.Fatalf("attempt log lines = %d, want >= 3\n%+v", attemptLines, logs)
	}
	if monitorAudits == 0 {
		t.Fatalf("no monitor fault audit entries\n%+v", logs)
	}
	if adaptation == nil {
		t.Fatalf("no adaptation audit entry\n%+v", logs)
	}
	if adaptation.Fields["failed_target"] != "inproc://scm/dead" || adaptation.Fields["served_by"] == "" {
		t.Fatalf("adaptation audit fields = %+v", adaptation.Fields)
	}

	// The trace view links back to the same correlation ID.
	hr, err := srv.Client().Get(srv.URL + "/api/v1/traces")
	if err != nil {
		t.Fatal(err)
	}
	var sums []telemetry.TraceSummary
	err = json.NewDecoder(hr.Body).Decode(&sums)
	hr.Body.Close()
	if err != nil || len(sums) != 1 {
		t.Fatalf("traces = %+v err = %v", sums, err)
	}
	hr2, err := srv.Client().Get(srv.URL + "/api/v1/traces/" + sums[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	var det telemetry.TraceDetail
	err = json.NewDecoder(hr2.Body).Decode(&det)
	hr2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if det.Conversation != conv {
		t.Fatalf("trace conversation = %q, want %q", det.Conversation, conv)
	}
	if det.JournalEntries == 0 {
		t.Fatal("trace links no journal entries")
	}
	if !strings.Contains(det.LogsURL, url.QueryEscape(conv)) || !strings.Contains(det.MessagesURL, url.QueryEscape(conv)) {
		t.Fatalf("journal links = %q %q", det.LogsURL, det.MessagesURL)
	}
	// Both links resolve on the surface that served the trace.
	for _, link := range []string{det.LogsURL, det.MessagesURL} {
		if !strings.HasPrefix(link, "/api/v1/") {
			t.Fatalf("journal link %q leaves /api/v1", link)
		}
		if entries := getJournal(t, srv, link); len(entries) == 0 {
			t.Fatalf("journal link %q lists no entries", link)
		}
	}

	// The message record carries the trace ID too, so either key joins
	// the same exchange.
	if m.Trace != sums[0].ID {
		t.Fatalf("message trace = %q, want %q", m.Trace, sums[0].ID)
	}

	// The decision provenance for the exchange shares the same keys:
	// the adaptation record that explains the recovery carries the
	// conversation ID of the journal entries and the trace ID of the
	// span tree, so "why did it adapt?" joins both planes.
	hr3, err := srv.Client().Get(srv.URL + "/api/v1/decisions?conversation=" + url.QueryEscape(conv))
	if err != nil {
		t.Fatal(err)
	}
	var page decision.Page
	err = json.NewDecoder(hr3.Body).Decode(&page)
	hr3.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if page.Count == 0 {
		t.Fatal("no decision records for the conversation")
	}
	var adapted *decision.Record
	for i, rec := range page.Records {
		if rec.Conversation != conv {
			t.Fatalf("decision record with wrong conversation: %+v", rec)
		}
		if rec.Policy == "retry-then-failover" && rec.Verdict == decision.VerdictMatched {
			adapted = &page.Records[i]
		}
	}
	if adapted == nil {
		t.Fatalf("no matched retry-then-failover decision\n%+v", page.Records)
	}
	if adapted.Trace != sums[0].ID {
		t.Fatalf("decision trace = %q, want %q", adapted.Trace, sums[0].ID)
	}
	if adapted.Action != "Retry+Substitute" {
		t.Fatalf("decision action = %q", adapted.Action)
	}
	if !strings.HasPrefix(adapted.Outcome, "served_by:") {
		t.Fatalf("decision outcome = %q", adapted.Outcome)
	}
}

// TestGatewayAdoptsPropagatedTraceContext sends a request already
// carrying a MASC TraceID header and asserts the gateway joins that
// trace instead of starting a fresh one.
func TestGatewayAdoptsPropagatedTraceContext(t *testing.T) {
	_, srv := bootDeadFirst(t, daemon.Config{})

	inv := &transport.HTTPInvoker{}
	req := soap.NewRequest(scm.NewGetCatalogRequest("tv", 0))
	soap.Addressing{To: "vep:Retailer", Action: "getCatalog"}.Apply(req)
	soap.SetTraceContext(req, "trace-upstream-42", "s1")
	resp, err := inv.Invoke(context.Background(), srv.URL+"/vep/Retailer", req)
	if err != nil || resp.IsFault() {
		t.Fatalf("resp = %+v err = %v", resp, err)
	}

	hr, err := srv.Client().Get(srv.URL + "/api/v1/traces/trace-upstream-42")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("adopted trace status = %d", hr.StatusCode)
	}
	var det telemetry.TraceDetail
	if err := json.NewDecoder(hr.Body).Decode(&det); err != nil {
		t.Fatal(err)
	}
	if det.Root.Name != "gateway vep:Retailer" || det.JournalEntries == 0 {
		t.Fatalf("adopted trace = %+v", det)
	}

	// The journal entries for the exchange carry the adopted ID.
	msgs := getJournal(t, srv, "/api/v1/messages?trace="+url.QueryEscape("trace-upstream-42"))
	if len(msgs) != 1 || msgs[0].Trace != "trace-upstream-42" {
		t.Fatalf("messages by adopted trace = %+v", msgs)
	}
}
