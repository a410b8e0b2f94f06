// Package event provides the typed publish/subscribe bus that decouples
// MASC's sensors from its effectors: monitoring components publish
// events (message intercepted, fault detected, SLA violated, process
// started), the policy decision maker subscribes and publishes
// adaptation requests, and adaptation services subscribe to those. This
// realizes the paper's "decoupling between sensors that monitor and
// detect adaptation triggers and effectors that react to and handle
// such triggers" (§4).
package event

import (
	"sync"
	"time"

	"github.com/masc-project/masc/internal/soap"
)

// Type classifies an event.
type Type string

// Event types published across the middleware layers.
const (
	// TypeProcessStarted fires when a workflow instance is created
	// (triggers static customization).
	TypeProcessStarted Type = "process.started"
	// TypeProcessCompleted fires when a workflow instance finishes.
	TypeProcessCompleted Type = "process.completed"
	// TypeActivityStarted fires when a workflow activity begins.
	TypeActivityStarted Type = "activity.started"
	// TypeActivityCompleted fires when a workflow activity ends.
	TypeActivityCompleted Type = "activity.completed"
	// TypeMessageIntercepted fires when the monitoring service observes
	// a message (triggers dynamic customization pre-condition checks).
	TypeMessageIntercepted Type = "message.intercepted"
	// TypeFaultDetected fires when monitoring classifies a fault.
	TypeFaultDetected Type = "fault.detected"
	// TypeSLAViolation fires when a QoS threshold in a monitoring
	// policy is breached.
	TypeSLAViolation Type = "sla.violation"
	// TypeAdaptationRequested asks an adaptation service to act.
	TypeAdaptationRequested Type = "adaptation.requested"
	// TypeAdaptationCompleted reports an executed adaptation.
	TypeAdaptationCompleted Type = "adaptation.completed"
)

// publishedTypes lists the event types middleware components actually
// emit. TypeAdaptationRequested is deliberately absent: it is part of
// the paper's vocabulary (a decision maker MAY delegate through it) but
// the in-process decision maker calls the adaptation service directly,
// so no component publishes it today. Tools such as policylint use this
// set to flag adaptation policies whose trigger can never fire.
var publishedTypes = []Type{
	TypeProcessStarted,
	TypeProcessCompleted,
	TypeActivityStarted,
	TypeActivityCompleted,
	TypeMessageIntercepted,
	TypeFaultDetected,
	TypeSLAViolation,
	TypeAdaptationCompleted,
}

// PublishedTypes returns the event types that at least one middleware
// component publishes, in declaration order. The returned slice is a
// copy.
func PublishedTypes() []Type {
	out := make([]Type, len(publishedTypes))
	copy(out, publishedTypes)
	return out
}

// IsPublished reports whether some middleware component publishes
// events of type t. A policy triggering on an unpublished type is dead:
// its OnEvent clause can never match.
func IsPublished(t Type) bool {
	for _, p := range publishedTypes {
		if p == t {
			return true
		}
	}
	return false
}

// Event is a cross-layer notification. Fields irrelevant to a given
// type are left zero.
type Event struct {
	Type Type
	// Time is when the event occurred.
	Time time.Time
	// Source names the emitting component (e.g. "wsbus/vep:Retailer").
	Source string
	// Service is the target service type or address involved.
	Service string
	// Operation is the service operation involved.
	Operation string
	// ProcessInstanceID correlates the event to a workflow instance.
	ProcessInstanceID string
	// FaultType carries the classified fault name for fault events.
	FaultType string
	// PolicyName identifies the policy that triggered or handled the event.
	PolicyName string
	// Message is the SOAP message involved, if any.
	Message *soap.Envelope
	// Detail is a human-readable elaboration.
	Detail string
	// Data carries additional key/value context (the paper's "Context
	// Collection that contains relevant data that could be needed
	// during the adaptation").
	Data map[string]string
}

// Handler consumes events. Handlers run synchronously on the
// publisher's goroutine; they must not block for long and must not
// deadlock by publishing recursively to the same subscription slot
// (recursive publishing to other types is fine).
type Handler func(Event)

type subscription struct {
	id      int
	handler Handler
}

// Bus is a synchronous pub/sub dispatcher, safe for concurrent use.
// The zero value is NOT usable; call NewBus.
//
// Subscriber lists are copy-on-write: Subscribe and unsubscribe install
// a new slice and never edit one in place, so Publish can dispatch from
// the slices it read under the lock without copying them.
type Bus struct {
	mu     sync.RWMutex
	nextID int
	byType map[Type][]subscription
	all    []subscription
}

// NewBus builds an empty bus.
func NewBus() *Bus {
	return &Bus{byType: make(map[Type][]subscription)}
}

// Subscribe registers a handler for one event type and returns an
// unsubscribe function.
func (b *Bus) Subscribe(t Type, h Handler) (unsubscribe func()) {
	b.mu.Lock()
	b.nextID++
	id := b.nextID
	b.byType[t] = with(b.byType[t], subscription{id: id, handler: h})
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		b.byType[t] = without(b.byType[t], id)
		b.mu.Unlock()
	}
}

// SubscribeAll registers a handler for every event type.
func (b *Bus) SubscribeAll(h Handler) (unsubscribe func()) {
	b.mu.Lock()
	b.nextID++
	id := b.nextID
	b.all = with(b.all, subscription{id: id, handler: h})
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		b.all = without(b.all, id)
		b.mu.Unlock()
	}
}

// with returns a new list holding subs followed by s.
func with(subs []subscription, s subscription) []subscription {
	return append(subs[:len(subs):len(subs)], s)
}

// without returns a new list holding subs minus the subscription id,
// or subs itself when id is not in it.
func without(subs []subscription, id int) []subscription {
	for i, s := range subs {
		if s.id == id {
			out := make([]subscription, 0, len(subs)-1)
			out = append(out, subs[:i]...)
			return append(out, subs[i+1:]...)
		}
	}
	return subs
}

// Publish delivers the event to type subscribers and all-subscribers,
// in subscription order, synchronously. It dispatches from the lists
// as they were when it started, so handlers may subscribe/unsubscribe
// during delivery without affecting the current dispatch.
func (b *Bus) Publish(e Event) {
	b.mu.RLock()
	typed, all := b.byType[e.Type], b.all
	b.mu.RUnlock()

	// Both lists are in id order, which is subscription order: merge.
	for len(typed) > 0 || len(all) > 0 {
		if len(all) == 0 || (len(typed) > 0 && typed[0].id < all[0].id) {
			typed[0].handler(e)
			typed = typed[1:]
		} else {
			all[0].handler(e)
			all = all[1:]
		}
	}
}

// Recorder collects published events for inspection; useful in tests
// and for the tracking/audit log.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// Attach subscribes the recorder to every event on the bus and returns
// the unsubscribe function.
func (r *Recorder) Attach(b *Bus) (unsubscribe func()) {
	return b.SubscribeAll(func(e Event) {
		r.mu.Lock()
		r.events = append(r.events, e)
		r.mu.Unlock()
	})
}

// Events returns a copy of the recorded events.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// OfType returns recorded events of the given type.
func (r *Recorder) OfType(t Type) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, e := range r.events {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

// Reset clears recorded events.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = nil
	r.mu.Unlock()
}
