package telemetry

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"github.com/masc-project/masc/internal/ringbuf"
)

// DefaultJournalCapacity is the ring-buffer size used when NewJournal
// is given a non-positive capacity.
const DefaultJournalCapacity = 2048

// Level is a log severity.
type Level int8

// Severities, ordered so that filtering by minimum level is a simple
// comparison.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String returns the lowercase severity name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ParseLevel maps a severity name to its Level; the boolean reports
// whether the name was recognized.
func ParseLevel(s string) (Level, bool) {
	switch s {
	case "debug":
		return LevelDebug, true
	case "info":
		return LevelInfo, true
	case "warn", "warning":
		return LevelWarn, true
	case "error":
		return LevelError, true
	default:
		return LevelInfo, false
	}
}

// MarshalJSON renders the level as its name ("info"), not its ordinal.
func (l Level) MarshalJSON() ([]byte, error) {
	return json.Marshal(l.String())
}

// UnmarshalJSON accepts a severity name.
func (l *Level) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	lv, ok := ParseLevel(s)
	if !ok {
		return fmt.Errorf("telemetry: unknown level %q", s)
	}
	*l = lv
	return nil
}

// Kind classifies a journal entry.
type Kind string

const (
	// KindLog is an ordinary structured log line.
	KindLog Kind = "log"
	// KindMessage is one gateway-handled SOAP exchange (the wsBus
	// message journal: request/response summary, VEP, backend, attempt
	// count, latency).
	KindMessage Kind = "message"
	// KindAudit is an SLA/fault audit record: a policy violation, a
	// classified fault, or an adaptation decision and the action taken.
	KindAudit Kind = "audit"
)

// Entry is one journal record. Correlation fields join entries with
// each other and with traces: Conversation carries the MASC
// ConversationID (falling back to the process-instance ID), Trace and
// Span carry the trace context propagated in MASC SOAP headers.
type Entry struct {
	// Seq is the journal-assigned monotonically increasing sequence
	// number (survives ring eviction, so gaps reveal dropped history).
	Seq uint64 `json:"seq"`
	// Time is when the entry was recorded.
	Time time.Time `json:"time"`
	// Level is the severity.
	Level Level `json:"level"`
	// Kind classifies the entry (log, message, audit).
	Kind Kind `json:"kind"`
	// Component names the emitting subsystem (bus, monitor, workflow,
	// decision, mascd, ...).
	Component string `json:"component"`
	// Message is the human-readable one-liner.
	Message string `json:"message"`
	// Conversation correlates the entry with a tracked exchange.
	Conversation string `json:"conversation,omitempty"`
	// Trace and Span tie the entry to a recorded trace.
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
	// Node identifies the cluster member that recorded the entry
	// (stamped by SetNode; empty on single-node deployments), so a
	// forwarded exchange's history is attributable to the node that
	// actually handled it.
	Node string `json:"node,omitempty"`
	// Fields carries structured key/value detail.
	Fields map[string]string `json:"fields,omitempty"`
}

// Journal is a bounded, concurrency-safe ring buffer of structured
// entries — the middleware's in-memory message journal, log store, and
// SLA audit trail. A nil *Journal is a valid no-op journal.
type Journal struct {
	mu   sync.Mutex
	seq  uint64
	node string
	ring *ringbuf.Buffer[Entry]
}

// SetNode stamps every subsequently recorded entry with the cluster
// node ID (entries that already carry one keep it — a record imported
// from a peer stays attributed to its origin).
func (j *Journal) SetNode(id string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.node = id
	j.mu.Unlock()
}

// NewJournal builds a journal retaining the last capacity entries
// (DefaultJournalCapacity when capacity <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{ring: ringbuf.New[Entry](capacity)}
}

// Record appends an entry, stamping its sequence number and — when the
// caller left Time zero — the current time. The oldest entry is evicted
// once the ring is full. It returns the assigned sequence number.
func (j *Journal) Record(e Entry) uint64 {
	if j == nil {
		return 0
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	if e.Kind == "" {
		e.Kind = KindLog
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.seq++
	e.Seq = j.seq
	if e.Node == "" {
		e.Node = j.node
	}
	j.ring.Push(e)
	return e.Seq
}

// Len returns the number of retained entries.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.Len()
}

// Query filters journal reads. Zero values match everything.
type Query struct {
	// Conversation matches entries with this exact conversation ID.
	Conversation string
	// Trace matches entries with this exact trace ID.
	Trace string
	// Component matches entries from this exact component.
	Component string
	// MinLevel drops entries below this severity.
	MinLevel Level
	// Kinds restricts to the listed kinds (nil means all).
	Kinds []Kind
	// Since drops entries recorded strictly before this time.
	Since time.Time
	// Limit keeps only the newest Limit matches (0 means all).
	Limit int
}

func (q Query) matches(e *Entry) bool {
	if q.Conversation != "" && e.Conversation != q.Conversation {
		return false
	}
	if q.Trace != "" && e.Trace != q.Trace {
		return false
	}
	if q.Component != "" && e.Component != q.Component {
		return false
	}
	if e.Level < q.MinLevel {
		return false
	}
	if len(q.Kinds) > 0 {
		found := false
		for _, k := range q.Kinds {
			if e.Kind == k {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if !q.Since.IsZero() && e.Time.Before(q.Since) {
		return false
	}
	return true
}

// Entries returns the matching entries in chronological order (oldest
// first). With a Limit, only the newest Limit matches are returned.
func (j *Journal) Entries(q Query) []Entry {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.Select(q.matches, q.Limit)
}

// CountTrace returns how many retained entries carry the trace ID.
func (j *Journal) CountTrace(id string) int {
	if j == nil || id == "" {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	count := 0
	j.ring.Do(func(e *Entry) bool {
		if e.Trace == id {
			count++
		}
		return true
	})
	return count
}
