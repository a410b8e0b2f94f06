package event

import (
	"sync"
	"testing"
)

func TestSubscribePublish(t *testing.T) {
	b := NewBus()
	var got []Event
	b.Subscribe(TypeFaultDetected, func(e Event) { got = append(got, e) })

	b.Publish(Event{Type: TypeFaultDetected, Service: "retailer-a", FaultType: "TimeoutFault"})
	b.Publish(Event{Type: TypeSLAViolation, Service: "retailer-b"}) // different type: not delivered

	if len(got) != 1 {
		t.Fatalf("delivered %d events, want 1", len(got))
	}
	if got[0].Service != "retailer-a" || got[0].FaultType != "TimeoutFault" {
		t.Fatalf("event = %+v", got[0])
	}
}

func TestUnsubscribe(t *testing.T) {
	b := NewBus()
	n := 0
	unsub := b.Subscribe(TypeFaultDetected, func(Event) { n++ })
	b.Publish(Event{Type: TypeFaultDetected})
	unsub()
	b.Publish(Event{Type: TypeFaultDetected})
	if n != 1 {
		t.Fatalf("handler called %d times, want 1", n)
	}
	// Double unsubscribe is harmless.
	unsub()
}

func TestSubscribeAll(t *testing.T) {
	b := NewBus()
	var types []Type
	unsub := b.SubscribeAll(func(e Event) { types = append(types, e.Type) })
	b.Publish(Event{Type: TypeFaultDetected})
	b.Publish(Event{Type: TypeSLAViolation})
	unsub()
	b.Publish(Event{Type: TypeProcessStarted})
	if len(types) != 2 || types[0] != TypeFaultDetected || types[1] != TypeSLAViolation {
		t.Fatalf("types = %v", types)
	}
}

func TestDeliveryOrderIsSubscriptionOrder(t *testing.T) {
	b := NewBus()
	var order []int
	b.Subscribe(TypeFaultDetected, func(Event) { order = append(order, 1) })
	b.SubscribeAll(func(Event) { order = append(order, 2) })
	b.Subscribe(TypeFaultDetected, func(Event) { order = append(order, 3) })
	b.Publish(Event{Type: TypeFaultDetected})
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

func TestHandlerMaySubscribeDuringDispatch(t *testing.T) {
	b := NewBus()
	calls := 0
	b.Subscribe(TypeFaultDetected, func(Event) {
		calls++
		// Late subscriber must not receive the in-flight event.
		b.Subscribe(TypeFaultDetected, func(Event) { calls += 100 })
	})
	b.Publish(Event{Type: TypeFaultDetected})
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (snapshot semantics)", calls)
	}
}

func TestRecursivePublishDifferentType(t *testing.T) {
	b := NewBus()
	var seen []Type
	b.Subscribe(TypeFaultDetected, func(Event) {
		seen = append(seen, TypeFaultDetected)
		b.Publish(Event{Type: TypeAdaptationRequested})
	})
	b.Subscribe(TypeAdaptationRequested, func(Event) {
		seen = append(seen, TypeAdaptationRequested)
	})
	b.Publish(Event{Type: TypeFaultDetected})
	if len(seen) != 2 || seen[1] != TypeAdaptationRequested {
		t.Fatalf("seen = %v", seen)
	}
}

func TestConcurrentPublish(t *testing.T) {
	b := NewBus()
	var mu sync.Mutex
	n := 0
	b.Subscribe(TypeMessageIntercepted, func(Event) {
		mu.Lock()
		n++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.Publish(Event{Type: TypeMessageIntercepted})
			}
		}()
	}
	wg.Wait()
	if n != 800 {
		t.Fatalf("delivered %d, want 800", n)
	}
}

func TestRecorder(t *testing.T) {
	b := NewBus()
	var r Recorder
	unsub := r.Attach(b)
	b.Publish(Event{Type: TypeFaultDetected, Service: "a"})
	b.Publish(Event{Type: TypeSLAViolation, Service: "b"})
	b.Publish(Event{Type: TypeFaultDetected, Service: "c"})

	if got := len(r.Events()); got != 3 {
		t.Fatalf("recorded %d, want 3", got)
	}
	faults := r.OfType(TypeFaultDetected)
	if len(faults) != 2 || faults[0].Service != "a" || faults[1].Service != "c" {
		t.Fatalf("faults = %+v", faults)
	}
	r.Reset()
	if len(r.Events()) != 0 {
		t.Fatal("Reset did not clear")
	}
	unsub()
	b.Publish(Event{Type: TypeFaultDetected})
	if len(r.Events()) != 0 {
		t.Fatal("recorder still attached after unsubscribe")
	}
}

// TestPublishDoesNotAllocate: dispatch to a typed and an all-subscriber
// reads the subscriber lists in place, so publishing costs nothing but
// the handler calls.
func TestPublishDoesNotAllocate(t *testing.T) {
	b := NewBus()
	n := 0
	b.Subscribe(TypeMessageIntercepted, func(Event) { n++ })
	b.SubscribeAll(func(Event) { n++ })
	ev := Event{Type: TypeMessageIntercepted, Source: "monitor"}
	if allocs := testing.AllocsPerRun(100, func() { b.Publish(ev) }); allocs != 0 {
		t.Fatalf("Publish allocates %.1f times per call, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("no handler ran")
	}
}

func TestEventsCopyIsolated(t *testing.T) {
	b := NewBus()
	var r Recorder
	r.Attach(b)
	b.Publish(Event{Type: TypeFaultDetected, Service: "orig"})
	evs := r.Events()
	evs[0].Service = "mutated"
	if r.Events()[0].Service != "orig" {
		t.Fatal("Events() exposed internal slice")
	}
}
