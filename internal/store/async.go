package store

import (
	"sync"

	"github.com/masc-project/masc/internal/telemetry"
)

// MutationOp selects what an AsyncCommitter mutation does to its key.
type MutationOp int

// Mutation operations.
const (
	// MutPut replaces the value at (Space, Key).
	MutPut MutationOp = iota
	// MutAppend appends to the value at (Space, Key).
	MutAppend
	// MutDelete removes (Space, Key).
	MutDelete
)

// Mutation is one unit of work for an AsyncCommitter. Value carries
// the bytes directly; alternatively Encode defers serialization to the
// committer's worker goroutine, moving encoding cost off the caller's
// hot path. When Encode is set it wins over Value; an Encode error
// drops the mutation and is reported through AsyncOptions.OnError.
type Mutation struct {
	// Op selects put, append, or delete.
	Op MutationOp
	// Space is the store space the mutation targets.
	Space string
	// Key is the key within Space.
	Key string
	// Value is the payload for MutPut and MutAppend (ignored for
	// MutDelete, and when Encode is set).
	Value []byte
	// Encode, when non-nil, produces the payload on the worker
	// goroutine at apply time instead of on the enqueueing goroutine.
	Encode func() ([]byte, error)
}

// AsyncOptions configures NewAsyncCommitter.
type AsyncOptions struct {
	// MaxLag bounds the queue of not-yet-applied mutations; Enqueue
	// blocks (backpressure) when the bound is reached (default 256).
	MaxLag int
	// OnError, when non-nil, observes mutations dropped by an encode or
	// store error. The worker keeps running either way.
	OnError func(Mutation, error)
	// Metrics optionally records queue depth and applied/failed counts.
	Metrics *telemetry.Registry
}

// AsyncCommitter drains checkpoint mutations to a Store on a single
// worker goroutine, taking WAL appends (and, via Mutation.Encode,
// serialization) off the caller's hot path. Ordering is preserved:
// mutations apply in Enqueue order. Durability is mode-aware — against
// a SyncAlways store the worker uses the synchronous mutations so that
// mode's per-record guarantee holds; otherwise it uses the Async store
// calls and leaves group commit to the store's syncer.
type AsyncCommitter struct {
	st   *Store
	opts AsyncOptions

	ch chan Mutation

	mu       sync.Mutex
	cond     *sync.Cond
	enqueued uint64
	applied  uint64
	closed   bool

	done chan struct{}

	queueDepth *telemetry.Gauge
	ops        *telemetry.CounterVec
}

// NewAsyncCommitter starts the worker goroutine and returns the
// committer. Close releases it.
func NewAsyncCommitter(st *Store, opts AsyncOptions) *AsyncCommitter {
	if opts.MaxLag <= 0 {
		opts.MaxLag = 256
	}
	c := &AsyncCommitter{
		st:   st,
		opts: opts,
		ch:   make(chan Mutation, opts.MaxLag),
		done: make(chan struct{}),
		queueDepth: opts.Metrics.Gauge("masc_store_async_queue_depth",
			"Checkpoint mutations enqueued but not yet applied to the store.").With(),
		ops: opts.Metrics.Counter("masc_store_async_ops_total",
			"Mutations drained by the async committer.", "outcome"),
	}
	c.cond = sync.NewCond(&c.mu)
	go c.worker()
	return c
}

// Enqueue hands a mutation to the worker, blocking when the committer
// is MaxLag mutations behind (backpressure). It returns ErrClosed
// after Close.
func (c *AsyncCommitter) Enqueue(m Mutation) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.enqueued++
	c.queueDepth.Set(float64(c.enqueued - c.applied))
	c.mu.Unlock()
	// The buffered channel IS the lag bound: this send blocks once
	// MaxLag mutations are in flight.
	c.ch <- m
	return nil
}

// Barrier blocks until every mutation enqueued before the call has
// been applied to the store (not necessarily fsynced — see
// BarrierDurable). It is the instance-finish fence: completion must
// not be acknowledged while its checkpoint is still queued.
func (c *AsyncCommitter) Barrier() {
	c.mu.Lock()
	defer c.mu.Unlock()
	target := c.enqueued
	for c.applied < target {
		c.cond.Wait()
	}
}

// BarrierDurable is Barrier plus Store.WaitDurable: on return every
// previously enqueued mutation is applied AND covered by an fsync
// (except in SyncNever mode, where durability is deferred by policy).
func (c *AsyncCommitter) BarrierDurable() error {
	c.Barrier()
	return c.st.WaitDurable()
}

// Close drains the queue and stops the worker. Subsequent Enqueue
// calls return ErrClosed. Close is idempotent.
func (c *AsyncCommitter) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.done
		return
	}
	c.closed = true
	target := c.enqueued
	for c.applied < target {
		c.cond.Wait()
	}
	c.mu.Unlock()
	// applied == enqueued and closed blocks new sends, so no Enqueue
	// is blocked on the channel: closing it is safe.
	close(c.ch)
	<-c.done
}

// worker drains mutations in order, encoding (when deferred) and
// applying each one. Store or encode errors are reported to OnError
// and do not stop the worker.
func (c *AsyncCommitter) worker() {
	defer close(c.done)
	for m := range c.ch {
		err := c.apply(m)
		c.mu.Lock()
		c.applied++
		c.queueDepth.Set(float64(c.enqueued - c.applied))
		c.cond.Broadcast()
		c.mu.Unlock()
		if err != nil {
			c.ops.With("error").Inc()
			if c.opts.OnError != nil {
				c.opts.OnError(m, err)
			}
		} else {
			c.ops.With("ok").Inc()
		}
	}
}

func (c *AsyncCommitter) apply(m Mutation) error {
	value := m.Value
	if m.Encode != nil && m.Op != MutDelete {
		var err error
		if value, err = m.Encode(); err != nil {
			return err
		}
	}
	// Against a SyncAlways store the synchronous calls preserve the
	// per-record fsync; otherwise the async calls let the store's
	// group-commit syncer batch the flushes behind us.
	strict := c.st.Mode() == SyncAlways
	switch m.Op {
	case MutPut:
		if strict {
			return c.st.Put(m.Space, m.Key, value)
		}
		return c.st.PutAsync(m.Space, m.Key, value)
	case MutAppend:
		if strict {
			return c.st.Append(m.Space, m.Key, value)
		}
		return c.st.AppendAsync(m.Space, m.Key, value)
	case MutDelete:
		if strict {
			return c.st.Delete(m.Space, m.Key)
		}
		return c.st.DeleteAsync(m.Space, m.Key)
	}
	return nil
}
