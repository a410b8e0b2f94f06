package telemetry

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// DefaultJournalPageLimit bounds journal responses when the caller
// sends no ?limit=.
const DefaultJournalPageLimit = 200

// ErrorCode maps an HTTP status to the error envelope's code slug.
func ErrorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusUnprocessableEntity:
		return "unprocessable"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusInternalServerError:
		return "internal"
	default:
		return fmt.Sprintf("http_%d", status)
	}
}

// WriteError answers with status and the management API's one error
// shape, {"error": {"code": ..., "message": ...}}. Every management
// handler — here, in telemetry/decision, and in mascd — reports its
// errors through it.
func WriteError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(map[string]map[string]string{
		"error": {"code": ErrorCode(status), "message": msg},
	})
}

// MetricsHandler serves the registry in the Prometheus text exposition
// format (the /metrics endpoint).
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// TraceDetail is the trace-endpoint rendering of one trace: the span
// tree plus links into the journal holding the trace's correlated log
// lines, message records, and audit entries.
type TraceDetail struct {
	TraceView
	// Conversation is the exchange correlation ID found on the trace's
	// spans ("" when none was recorded).
	Conversation string `json:"conversation,omitempty"`
	// JournalEntries counts retained journal entries carrying this
	// trace ID.
	JournalEntries int `json:"journalEntries"`
	// LogsURL and MessagesURL link to the journal endpoints filtered to
	// this trace's correlation ID.
	LogsURL     string `json:"logsUrl,omitempty"`
	MessagesURL string `json:"messagesUrl,omitempty"`
}

// findConversation walks a span tree for the first "conversation"
// attribute (the VEP stamps it on its span).
func findConversation(v SpanView) string {
	if c := v.Attrs["conversation"]; c != "" {
		return c
	}
	for _, ch := range v.Children {
		if c := findConversation(ch); c != "" {
			return c
		}
	}
	return ""
}

// TracesHandler serves recorded traces as JSON: the bare path lists
// trace summaries (newest first); "<path>/{id}" returns one full span
// tree plus links to the trace's journal entries (pass a nil journal
// to omit them). Mount it at both "<base>/traces" and
// "<base>/traces/"; the journal links point at "<base>/logs" and
// "<base>/messages", the siblings it is mounted beside.
func TracesHandler(t *Tracer, j *Journal) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		base, id, _ := strings.Cut(req.URL.Path, "/traces")
		id = strings.Trim(id, "/")
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if id == "" {
			_ = enc.Encode(t.Traces())
			return
		}
		view, ok := t.Trace(id)
		if !ok {
			WriteError(w, http.StatusNotFound, "unknown trace")
			return
		}
		det := TraceDetail{TraceView: view}
		if j != nil {
			det.JournalEntries = j.CountTrace(id)
			det.LogsURL = base + "/logs?trace=" + url.QueryEscape(id)
			det.MessagesURL = base + "/messages?trace=" + url.QueryEscape(id)
			// When the exchange recorded a conversation ID, link by it
			// instead: it also matches entries that carry no trace
			// context (e.g. the monitor's audit records).
			if conv := findConversation(view.Root); conv != "" {
				det.Conversation = conv
				det.LogsURL = base + "/logs?conversation=" + url.QueryEscape(conv)
				det.MessagesURL = base + "/messages?conversation=" + url.QueryEscape(conv)
			}
		}
		_ = enc.Encode(det)
	})
}

// JournalPage is the journal-endpoint response envelope.
type JournalPage struct {
	Count   int     `json:"count"`
	Entries []Entry `json:"entries"`
}

// JournalHandler serves journal entries as JSON with the filters
// ?conversation=, ?trace=, ?component=, ?level= (minimum severity),
// ?since= (RFC 3339), ?kind=, and ?limit= (newest N; default
// DefaultJournalPageLimit, 0 for all). The kinds argument restricts
// the mount to a fixed subset (e.g. only KindMessage for /messages);
// a ?kind= outside that subset yields an empty page.
func JournalHandler(j *Journal, kinds ...Kind) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		p := req.URL.Query()
		q := Query{
			Conversation: p.Get("conversation"),
			Trace:        p.Get("trace"),
			Component:    p.Get("component"),
			Kinds:        kinds,
			Limit:        DefaultJournalPageLimit,
		}
		if lv := p.Get("level"); lv != "" {
			l, ok := ParseLevel(lv)
			if !ok {
				WriteError(w, http.StatusBadRequest, "unknown level")
				return
			}
			q.MinLevel = l
		}
		if s := p.Get("since"); s != "" {
			ts, err := time.Parse(time.RFC3339, s)
			if err != nil {
				WriteError(w, http.StatusBadRequest, "since must be RFC 3339")
				return
			}
			q.Since = ts
		}
		if k := p.Get("kind"); k != "" {
			want := Kind(k)
			allowed := len(kinds) == 0
			for _, have := range kinds {
				if have == want {
					allowed = true
				}
			}
			if !allowed {
				_ = json.NewEncoder(w).Encode(JournalPage{Entries: []Entry{}})
				return
			}
			q.Kinds = []Kind{want}
		}
		if l := p.Get("limit"); l != "" {
			n, err := strconv.Atoi(l)
			if err != nil || n < 0 {
				WriteError(w, http.StatusBadRequest, "limit must be a non-negative integer")
				return
			}
			q.Limit = n
		}
		entries := j.Entries(q)
		if entries == nil {
			entries = []Entry{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(JournalPage{Count: len(entries), Entries: entries})
	})
}
