package monitor

import (
	"sync"
	"time"

	"github.com/masc-project/masc/internal/ringbuf"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/wsdl"
	"github.com/masc-project/masc/internal/xpath"
)

// StoredMessage is one intercepted message retained by the
// MonitoringStore.
type StoredMessage struct {
	Time       time.Time
	InstanceID string
	Subject    string
	Operation  string
	Direction  wsdl.Direction
	Envelope   *soap.Envelope
}

// Store is the MonitoringStore: a bounded history of intercepted
// messages that supports "situations when adaptation pre-conditions
// refer to several different SOAP messages" (§2.1) and "querying the
// log of prior interactions to get some historical data" (§3.1(2)).
// Store is safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	messages *ringbuf.Buffer[StoredMessage]
}

// NewStore builds a store retaining at most limit messages (oldest
// evicted first); limit <= 0 means 1024.
func NewStore(limit int) *Store {
	if limit <= 0 {
		limit = 1024
	}
	return &Store{messages: ringbuf.New[StoredMessage](limit)}
}

// Record appends a message, evicting the oldest beyond the limit. The
// store keeps m.Envelope as it is and reads it without a lock, so the
// caller gives it up: nothing may change it afterwards (ObserveMessage
// records a clone of the live message).
func (s *Store) Record(m StoredMessage) {
	s.mu.Lock()
	s.messages.Push(m)
	s.mu.Unlock()
}

// Len returns the number of retained messages.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.messages.Len()
}

// CountForInstance returns how many retained messages correlate to the
// process instance.
func (s *Store) CountForInstance(instanceID string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	s.messages.Do(func(m *StoredMessage) bool {
		if m.InstanceID == instanceID {
			n++
		}
		return true
	})
	return n
}

// Filter selects retained messages; zero-valued fields match anything.
type Filter struct {
	InstanceID string
	Subject    string
	Operation  string
	Direction  wsdl.Direction
}

func (f Filter) matches(m *StoredMessage) bool {
	if f.InstanceID != "" && f.InstanceID != m.InstanceID {
		return false
	}
	if f.Subject != "" && f.Subject != m.Subject {
		return false
	}
	if f.Operation != "" && f.Operation != m.Operation {
		return false
	}
	if f.Direction != 0 && f.Direction != m.Direction {
		return false
	}
	return true
}

// Query returns copies of the retained messages matching the filter,
// oldest first.
func (s *Store) Query(f Filter) []StoredMessage {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.messages.Select(f.matches, 0)
	for i := range out {
		out[i].Envelope = out[i].Envelope.Clone()
	}
	return out
}

// CountMatching evaluates a compiled XPath boolean over each retained
// message matching the filter and returns how many satisfy it. This is
// the multi-message pre-condition primitive: e.g. "the instance has
// already seen two orders over $threshold".
//
// A stored envelope is a copy nobody changes, so the expression reads
// each one in place, through a view, outside the lock.
func (s *Store) CountMatching(f Filter, expr *xpath.Compiled) (int, error) {
	s.mu.Lock()
	msgs := s.messages.Select(f.matches, 0)
	s.mu.Unlock()
	n := 0
	for _, m := range msgs {
		ok, err := expr.EvalBool(m.Envelope.View(), xpath.Context{})
		if err != nil {
			return n, err
		}
		if ok {
			n++
		}
	}
	return n, nil
}

// Reset discards all retained messages.
func (s *Store) Reset() {
	s.mu.Lock()
	s.messages.Reset()
	s.mu.Unlock()
}
