// Package ringbuf is the one bounded history in the tree: a fixed-
// capacity buffer that keeps the newest values and overwrites the
// oldest. It is unlocked — every owner (journal, decision recorder,
// tracer, checkpoint events, MonitoringStore, MessageLogger, the SCM
// logging facility) guards it with a mutex of its own.
package ringbuf

// Buffer holds the newest values pushed into it, up to its capacity,
// oldest first.
type Buffer[T any] struct {
	buf  []T // allocated once, at full capacity
	head int // index of the oldest value
	n    int // live values, <= len(buf)
}

// New builds a buffer retaining the last capacity values. Capacity must
// be positive; owners apply their defaults before calling.
func New[T any](capacity int) *Buffer[T] {
	if capacity <= 0 {
		panic("ringbuf: capacity must be positive")
	}
	return &Buffer[T]{buf: make([]T, capacity)}
}

// Push appends v and reports whether the oldest value was evicted to
// make room.
func (b *Buffer[T]) Push(v T) (evicted bool) {
	if b.n < len(b.buf) {
		b.buf[(b.head+b.n)%len(b.buf)] = v
		b.n++
		return false
	}
	b.buf[b.head] = v
	b.head = (b.head + 1) % len(b.buf)
	return true
}

// Len returns the number of retained values.
func (b *Buffer[T]) Len() int { return b.n }

// Do calls fn on each retained value, oldest to newest, until fn
// returns false. The pointer is into the buffer: valid only during the
// call.
func (b *Buffer[T]) Do(fn func(*T) bool) {
	for i := 0; i < b.n; i++ {
		if !fn(&b.buf[(b.head+i)%len(b.buf)]) {
			return
		}
	}
}

// Select returns copies of the values match accepts (all of them when
// match is nil), oldest first, keeping only the newest limit when
// limit > 0. It returns nil when nothing matches.
func (b *Buffer[T]) Select(match func(*T) bool, limit int) []T {
	var out []T
	b.Do(func(v *T) bool {
		if match == nil || match(v) {
			out = append(out, *v)
		}
		return true
	})
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Reset discards every retained value, releasing what they reference.
func (b *Buffer[T]) Reset() {
	clear(b.buf)
	b.head, b.n = 0, 0
}
