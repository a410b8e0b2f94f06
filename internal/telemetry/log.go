package telemetry

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// syncWriter serializes JSON-line output from loggers that share one
// sink (derived loggers share their parent's writer and lock).
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) writeLine(line []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, _ = s.w.Write(append(line, '\n'))
}

// Logger emits structured log entries into a Journal and, optionally,
// as JSON lines to an io.Writer. Loggers are immutable: With, Span, and
// Conversation return derived loggers sharing the journal and sink. A
// nil *Logger is a valid no-op logger, so components can log
// unconditionally whether or not telemetry is wired in.
type Logger struct {
	j            *Journal
	out          *syncWriter
	component    string
	conversation string
	traceID      string
	spanID       string
	fields       []string // alternating key, value
}

// NewLogger builds a logger recording into the journal under the given
// component name. A nil journal yields a logger that only writes to a
// sink attached later with Output (or nothing at all).
func NewLogger(j *Journal, component string) *Logger {
	return &Logger{j: j, component: component}
}

// Logger returns a journal-backed logger for the component (nil on a
// nil hub, which is still safe to use).
func (t *Telemetry) Logger(component string) *Logger {
	if t == nil {
		return nil
	}
	return NewLogger(t.Journal, component)
}

func (l *Logger) clone() *Logger {
	cp := *l
	cp.fields = append([]string(nil), l.fields...)
	return &cp
}

// Output returns a derived logger that additionally writes each entry
// as one JSON line to w.
func (l *Logger) Output(w io.Writer) *Logger {
	if l == nil || w == nil {
		return l
	}
	cp := l.clone()
	cp.out = &syncWriter{w: w}
	return cp
}

// With returns a derived logger carrying extra key/value fields
// (alternating keys and values; a dangling key gets an empty value).
func (l *Logger) With(kv ...string) *Logger {
	if l == nil || len(kv) == 0 {
		return l
	}
	cp := l.clone()
	cp.fields = append(cp.fields, kv...)
	return cp
}

// Span returns a derived logger correlated to the span's trace.
func (l *Logger) Span(s *Span) *Logger {
	if l == nil || s == nil {
		return l
	}
	cp := l.clone()
	cp.traceID = s.TraceID()
	cp.spanID = s.SpanID()
	return cp
}

// Conversation returns a derived logger correlated to a conversation.
func (l *Logger) Conversation(id string) *Logger {
	if l == nil || id == "" {
		return l
	}
	cp := l.clone()
	cp.conversation = id
	return cp
}

// Info logs at info severity.
func (l *Logger) Info(msg string, kv ...string) { l.Log(LevelInfo, msg, kv...) }

// Warn logs at warn severity.
func (l *Logger) Warn(msg string, kv ...string) { l.Log(LevelWarn, msg, kv...) }

// Error logs at error severity.
func (l *Logger) Error(msg string, kv ...string) { l.Log(LevelError, msg, kv...) }

// Log records one entry of KindLog with the given severity, message,
// and alternating key/value fields.
func (l *Logger) Log(level Level, msg string, kv ...string) {
	l.Record(Entry{Level: level, Kind: KindLog, Message: msg, Fields: kvMap(nil, kv)})
}

// Record fills the logger's component and correlation into the entry
// (without overriding values the caller set), merges the logger's bound
// fields, journals it, and mirrors it to the output sink when attached.
func (l *Logger) Record(e Entry) {
	if l == nil {
		return
	}
	if e.Component == "" {
		e.Component = l.component
	}
	if e.Conversation == "" {
		e.Conversation = l.conversation
	}
	if e.Trace == "" {
		e.Trace = l.traceID
	}
	if e.Span == "" {
		e.Span = l.spanID
	}
	if len(l.fields) > 0 {
		e.Fields = kvMap(e.Fields, l.fields)
	}
	// Stamp the time here (not only in Journal.Record) so the sink line
	// matches the journal entry even with no journal attached.
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	e.Seq = l.j.Record(e)
	if l.out != nil {
		if line, err := json.Marshal(e); err == nil {
			l.out.writeLine(line)
		}
	}
}

// kvMap folds alternating key/value strings into m (allocating it when
// nil and kv is not empty). Existing keys in m win.
func kvMap(m map[string]string, kv []string) map[string]string {
	if len(kv) == 0 {
		return m
	}
	if m == nil {
		m = make(map[string]string, len(kv)/2)
	}
	for i := 0; i < len(kv); i += 2 {
		k := kv[i]
		v := ""
		if i+1 < len(kv) {
			v = kv[i+1]
		}
		if _, exists := m[k]; !exists {
			m[k] = v
		}
	}
	return m
}
