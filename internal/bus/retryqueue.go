package bus

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/masc-project/masc/internal/clock"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/store"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/transport"
)

// DeadLetter is a message whose redelivery was abandoned: "messages
// for which processing repeatedly fails are placed in a 'dead letter'
// queue after exhausting the maximum number of allowed retries and no
// further delivery will be attempted" (§3.1).
type DeadLetter struct {
	Endpoint string
	Envelope *soap.Envelope
	Attempts int
	LastErr  string
	Time     time.Time
}

// DefaultDLQCapacity bounds a DeadLetterQueue built without an
// explicit capacity. An unbounded dead-letter queue is a slow memory
// leak under sustained failure — exactly the overload condition the
// rest of the middleware defends against.
const DefaultDLQCapacity = 1024

// DeadLetterQueue retains the most recent dead letters for inspection,
// dropping the oldest once its capacity is reached. It is safe for
// concurrent use.
type DeadLetterQueue struct {
	mu      sync.Mutex
	cap     int
	dropped uint64
	letters []DeadLetter

	// st, when bound, write-throughs every letter to SpaceDLQ; keys
	// parallels letters (persist key per letter) for eviction deletes.
	st   *store.Store
	seq  uint64
	keys []string

	// droppedCounter is a nil-safe telemetry handle.
	droppedCounter *telemetry.Counter
}

// NewDeadLetterQueue builds a queue holding at most capacity letters;
// capacity 0 means DefaultDLQCapacity, negative means unbounded.
func NewDeadLetterQueue(capacity int) *DeadLetterQueue {
	if capacity == 0 {
		capacity = DefaultDLQCapacity
	}
	return &DeadLetterQueue{cap: capacity}
}

// Add appends a dead letter, evicting the oldest when full. The zero
// DeadLetterQueue is usable and capped at DefaultDLQCapacity. When a
// store is bound the letter is journaled durably and evictions delete
// their records.
func (q *DeadLetterQueue) Add(d DeadLetter) {
	q.mu.Lock()
	if q.st != nil {
		q.persistLetterLocked(d)
	}
	q.letters = append(q.letters, d)
	q.enforceCapLocked()
	q.mu.Unlock()
}

// enforceCapLocked evicts the oldest letters (and their durable
// records) down to the capacity bound. Caller holds q.mu.
func (q *DeadLetterQueue) enforceCapLocked() {
	limit := q.cap
	if limit == 0 {
		limit = DefaultDLQCapacity
	}
	if limit <= 0 || len(q.letters) <= limit {
		return
	}
	drop := len(q.letters) - limit
	if q.st != nil {
		for _, k := range q.keys[:drop] {
			_ = q.st.Delete(SpaceDLQ, k)
		}
		q.keys = append(q.keys[:0], q.keys[drop:]...)
	}
	q.letters = append(q.letters[:0], q.letters[drop:]...)
	q.dropped += uint64(drop)
	q.droppedCounter.Add(uint64(drop))
}

// Letters returns a copy of the queue contents.
func (q *DeadLetterQueue) Letters() []DeadLetter {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]DeadLetter, len(q.letters))
	copy(out, q.letters)
	return out
}

// Len returns the number of dead letters.
func (q *DeadLetterQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.letters)
}

// queuedMessage is one message awaiting (re)delivery.
type queuedMessage struct {
	endpoint string
	envelope *soap.Envelope
	attempts int
	due      time.Time
	lastErr  string
	key      string     // durable record key; empty without a store
	done     chan error // closed with final outcome; may be nil
}

// RetryQueue is the Invocation Retry Handler for one-way messages:
// "the Invocation Retry Handler places the messages that fail to be
// delivered in a retry queue and the queue reader tries redelivery
// using the pattern specified by the used recovery policy" (§3.1).
// Delivery order among due messages is FIFO. RetryQueue owns a reader
// goroutine; Stop shuts it down and waits for exit.
type RetryQueue struct {
	clk      clock.Clock
	invoker  transport.Invoker
	retry    policy.RetryAction
	dlq      *DeadLetterQueue
	pollTick time.Duration

	pendingGauge *telemetry.Gauge
	deliveries   *telemetry.CounterVec

	st      *store.Store
	journal *telemetry.Journal

	mu      sync.Mutex
	seq     uint64 // next durable record key
	pending []*queuedMessage

	stop chan struct{}
	done chan struct{}
}

// RetryQueueConfig configures NewRetryQueue.
type RetryQueueConfig struct {
	// Clock is the time source (defaults to the real clock).
	Clock clock.Clock
	// Invoker performs deliveries.
	Invoker transport.Invoker
	// Policy is the redelivery pattern; MaxAttempts counts retries
	// after the first delivery attempt.
	Policy policy.RetryAction
	// DLQ receives abandoned messages (one is created if nil).
	DLQ *DeadLetterQueue
	// DLQCapacity bounds the created DLQ when DLQ is nil: 0 means
	// DefaultDLQCapacity, negative means unbounded.
	DLQCapacity int
	// PollInterval is the queue reader's wakeup period (defaults to
	// 10ms; with a fake clock, advance in multiples of it).
	PollInterval time.Duration
	// Metrics optionally records queue depth and delivery outcomes.
	Metrics *telemetry.Registry
	// Store optionally persists pending entries (SpaceRetry) and dead
	// letters (SpaceDLQ): after a crash, pending messages re-enqueue
	// and the DLQ reloads on the next NewRetryQueue over the same
	// store.
	Store *store.Store
	// Journal optionally receives audit records (e.g. messages drained
	// to the DLQ at shutdown).
	Journal *telemetry.Journal
}

// NewRetryQueue builds and starts a retry queue.
func NewRetryQueue(cfg RetryQueueConfig) *RetryQueue {
	q := &RetryQueue{
		clk:      cfg.Clock,
		invoker:  cfg.Invoker,
		retry:    cfg.Policy,
		dlq:      cfg.DLQ,
		pollTick: cfg.PollInterval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if q.clk == nil {
		q.clk = clock.New()
	}
	if q.dlq == nil {
		q.dlq = NewDeadLetterQueue(cfg.DLQCapacity)
	}
	if q.pollTick <= 0 {
		q.pollTick = 10 * time.Millisecond
	}
	q.pendingGauge = cfg.Metrics.Gauge("masc_retryqueue_pending",
		"Messages awaiting (re)delivery in the retry queue.").With()
	q.deliveries = cfg.Metrics.Counter("masc_retryqueue_deliveries_total",
		"Retry-queue delivery outcomes (delivered, requeued, dead).", "outcome")
	q.dlq.mu.Lock()
	if q.dlq.droppedCounter == nil {
		q.dlq.droppedCounter = cfg.Metrics.Counter("masc_dlq_dropped_total",
			"Dead letters evicted to respect the DLQ capacity bound.").With()
	}
	q.dlq.mu.Unlock()
	q.st = cfg.Store
	q.journal = cfg.Journal
	if q.st != nil {
		q.dlq.bindStore(q.st)
		q.seq = q.loadPersisted()
	}
	go q.reader()
	return q
}

// DLQ returns the dead-letter queue.
func (q *RetryQueue) DLQ() *DeadLetterQueue { return q.dlq }

// Enqueue schedules a message for delivery. The returned channel
// receives the final outcome (nil on delivered, the last error on
// dead-lettering) and is closed afterwards.
func (q *RetryQueue) Enqueue(endpoint string, env *soap.Envelope) <-chan error {
	done := make(chan error, 1)
	m := &queuedMessage{
		endpoint: endpoint,
		envelope: env.Clone(),
		due:      q.clk.Now(),
		done:     done,
	}
	q.mu.Lock()
	if q.st != nil {
		m.key = persistSeqKey(q.seq)
		q.seq++
		// Journal before publishing to the reader, so a record always
		// exists by the time the message can settle (and be deleted).
		q.persistMessage(m)
	}
	q.pending = append(q.pending, m)
	q.pendingGauge.Set(float64(len(q.pending)))
	q.mu.Unlock()
	return done
}

// ErrDrained is delivered to an Enqueue caller's outcome channel when
// the queue is stopped before the message could be delivered.
var ErrDrained = errors.New("bus: retry queue stopped before delivery; message moved to the dead-letter queue")

// Stop shuts down the queue reader, waits for it to exit, then drains
// every still-pending message into the dead-letter queue: a clean
// shutdown must not silently drop undelivered one-way messages. Each
// drained message is counted (outcome "drained"), audited, and its
// outcome channel receives ErrDrained. With a bound store the DLQ
// records are durable, so the messages remain inspectable after
// restart; after a crash (no Stop) the pending entries instead
// re-enqueue from the store.
func (q *RetryQueue) Stop() {
	select {
	case <-q.stop:
	default:
		close(q.stop)
	}
	<-q.done
	q.drainToDLQ()
}

// drainToDLQ moves all pending messages to the DLQ. Idempotent; runs
// after the reader goroutine has exited.
func (q *RetryQueue) drainToDLQ() {
	q.mu.Lock()
	drained := q.pending
	q.pending = nil
	q.pendingGauge.Set(0)
	q.mu.Unlock()
	if len(drained) == 0 {
		return
	}
	now := q.clk.Now()
	for _, m := range drained {
		lastErr := m.lastErr
		if lastErr == "" {
			lastErr = "queue stopped before first delivery attempt"
		}
		q.deliveries.With("drained").Inc()
		q.dlq.Add(DeadLetter{
			Endpoint: m.endpoint,
			Envelope: m.envelope,
			Attempts: m.attempts,
			LastErr:  lastErr,
			Time:     now,
		})
		q.unpersistMessage(m)
		if m.done != nil {
			m.done <- ErrDrained
			close(m.done)
		}
	}
	if q.journal != nil {
		q.journal.Record(telemetry.Entry{
			Level:     telemetry.LevelWarn,
			Kind:      telemetry.KindAudit,
			Component: "bus",
			Message: fmt.Sprintf("retry queue stopped: %d undelivered message(s) drained to the dead-letter queue",
				len(drained)),
			Fields: map[string]string{"drained": fmt.Sprint(len(drained))},
		})
	}
}

func (q *RetryQueue) reader() {
	defer close(q.done)
	for {
		select {
		case <-q.stop:
			return
		case <-q.clk.After(q.pollTick):
		}
		q.drainDue()
	}
}

func (q *RetryQueue) drainDue() {
	now := q.clk.Now()
	q.mu.Lock()
	var due []*queuedMessage
	kept := q.pending[:0]
	for _, m := range q.pending {
		if !m.due.After(now) {
			due = append(due, m)
		} else {
			kept = append(kept, m)
		}
	}
	q.pending = kept
	q.pendingGauge.Set(float64(len(q.pending)))
	q.mu.Unlock()

	for _, m := range due {
		q.deliver(m)
	}
}

func (q *RetryQueue) deliver(m *queuedMessage) {
	resp, err := q.invoker.Invoke(context.Background(), m.endpoint, m.envelope)
	if err == nil && resp != nil && resp.IsFault() {
		err = resp.Fault
	}
	if err == nil {
		q.deliveries.With("delivered").Inc()
		q.unpersistMessage(m)
		if m.done != nil {
			m.done <- nil
			close(m.done)
		}
		return
	}

	m.attempts++
	m.lastErr = err.Error()
	if m.attempts > q.retry.MaxAttempts {
		q.deliveries.With("dead").Inc()
		q.dlq.Add(DeadLetter{
			Endpoint: m.endpoint,
			Envelope: m.envelope,
			Attempts: m.attempts,
			LastErr:  m.lastErr,
			Time:     q.clk.Now(),
		})
		q.unpersistMessage(m)
		if m.done != nil {
			m.done <- err
			close(m.done)
		}
		return
	}

	delay := q.retry.Delay
	if q.retry.Backoff == policy.BackoffExponential {
		for i := 1; i < m.attempts; i++ {
			delay *= 2
		}
	}
	m.due = q.clk.Now().Add(delay)
	q.deliveries.With("requeued").Inc()
	q.persistMessage(m)
	q.mu.Lock()
	q.pending = append(q.pending, m)
	q.pendingGauge.Set(float64(len(q.pending)))
	q.mu.Unlock()
}
