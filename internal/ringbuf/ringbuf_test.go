package ringbuf

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestModelEviction drives a Buffer and a plain slice with the same
// random Push/Select/Reset sequence and checks they never disagree on
// order, length, the evicted flag, or limit trimming.
func TestModelEviction(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 1024} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		b := New[int](capacity)
		var model []int
		next := 0
		for step := 0; step < 5*capacity+200; step++ {
			switch op := rng.Intn(20); {
			case op == 0:
				b.Reset()
				model = nil
			case op < 4:
				div := 1 + rng.Intn(3)
				limit := rng.Intn(capacity + 2)
				var want []int
				for _, v := range model {
					if v%div == 0 {
						want = append(want, v)
					}
				}
				if limit > 0 && len(want) > limit {
					want = want[len(want)-limit:]
				}
				got := b.Select(func(v *int) bool { return *v%div == 0 }, limit)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("cap %d step %d: Select(div %d, limit %d) = %v, want %v",
						capacity, step, div, limit, got, want)
				}
			default:
				wantEvicted := len(model) == capacity
				if wantEvicted {
					model = model[1:]
				}
				model = append(model, next)
				if got := b.Push(next); got != wantEvicted {
					t.Fatalf("cap %d step %d: Push evicted = %v, want %v", capacity, step, got, wantEvicted)
				}
				next++
			}
			if b.Len() != len(model) {
				t.Fatalf("cap %d step %d: Len = %d, want %d", capacity, step, b.Len(), len(model))
			}
		}
		if got := b.Select(nil, 0); !reflect.DeepEqual(got, model) {
			t.Fatalf("cap %d: final contents %v, want %v", capacity, got, model)
		}
	}
}

func TestDoStopsEarly(t *testing.T) {
	b := New[int](4)
	for i := 0; i < 6; i++ { // wraps: holds 2,3,4,5
		b.Push(i)
	}
	var seen []int
	b.Do(func(v *int) bool {
		seen = append(seen, *v)
		return *v < 3
	})
	if !reflect.DeepEqual(seen, []int{2, 3}) {
		t.Fatalf("seen = %v, want [2 3]", seen)
	}
}

func TestResetReleasesValues(t *testing.T) {
	b := New[*int](2)
	b.Push(new(int))
	b.Push(new(int))
	b.Reset()
	for i, p := range b.buf {
		if p != nil {
			t.Fatalf("slot %d still references a value after Reset", i)
		}
	}
}

func TestPushOnFullRingDoesNotAllocate(t *testing.T) {
	b := New[[4]string](8)
	var v [4]string
	for i := 0; i < 8; i++ {
		b.Push(v)
	}
	if allocs := testing.AllocsPerRun(1000, func() { b.Push(v) }); allocs != 0 {
		t.Fatalf("Push on a full ring allocates %.1f times per call, want 0", allocs)
	}
}

func TestNewRejectsNonPositiveCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int](0)
}
