package store

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestAppendAccumulatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever})
	if err := s.Put("sp", "k", []byte("anchor|")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Append("sp", "k", []byte(fmt.Sprintf("d%d|", i))); err != nil {
			t.Fatal(err)
		}
	}
	want := []byte("anchor|d0|d1|d2|d3|d4|")
	if got, ok := s.Get("sp", "k"); !ok || !bytes.Equal(got, want) {
		t.Fatalf("in-memory value = %q, want %q", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	if got, ok := r.Get("sp", "k"); !ok || !bytes.Equal(got, want) {
		t.Fatalf("recovered value = %q, want %q", got, want)
	}
	// A snapshot must fold the chain into one put and still recover.
	if err := r.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := r.Append("sp", "k", []byte("post|")); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := mustOpen(t, dir, Options{})
	defer r2.Close()
	want = append(want, []byte("post|")...)
	if got, ok := r2.Get("sp", "k"); !ok || !bytes.Equal(got, want) {
		t.Fatalf("post-snapshot recovered value = %q, want %q", got, want)
	}
}

// TestAppendLeavesCallerBufferAlone: a Put value with spare capacity
// is the caller's buffer; a later Append must reallocate rather than
// write past the value's length into it.
func TestAppendLeavesCallerBufferAlone(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	defer s.Close()
	buf := bytes.Repeat([]byte("."), 64)
	copy(buf, "base|")
	orig := bytes.Clone(buf)
	if err := s.Put("sp", "k", buf[:5]); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("sp", "k", []byte("more|")); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, orig) {
		t.Fatalf("caller buffer = %q after Append, want %q", buf, orig)
	}
	if got, _ := s.Get("sp", "k"); string(got) != "base|more|" {
		t.Fatalf("value = %q, want \"base|more|\"", got)
	}
}

// TestGetUnaffectedByLaterAppend: a Get result is the caller's copy,
// even while the stored chain grows in place behind it.
func TestGetUnaffectedByLaterAppend(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	defer s.Close()
	for i := 0; i < 4; i++ {
		if err := s.Append("sp", "k", []byte(fmt.Sprintf("d%d|", i))); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := s.Get("sp", "k")
	held := bytes.Clone(got)
	for i := 4; i < 8; i++ {
		if err := s.Append("sp", "k", []byte(fmt.Sprintf("d%d|", i))); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, held) {
		t.Fatalf("Get result changed to %q after Append, want %q", got, held)
	}
	if all := s.List("sp")["k"]; string(all) != "d0|d1|d2|d3|d4|d5|d6|d7|" {
		t.Fatalf("List value = %q", all)
	}
}

// TestReopenRecoversInterleavedAppendChains replays two keys' put + 32
// appends, interleaved record by record, and must rebuild both chains
// byte for byte: growing one replayed value in place must never reach
// into bytes of the record after it.
func TestReopenRecoversInterleavedAppendChains(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncNever, SnapshotEvery: -1})
	want := map[string][]byte{}
	for _, k := range []string{"a", "b"} {
		want[k] = []byte("anchor-" + k + "|")
		if err := s.Put("sp", k, want[k]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		for _, k := range []string{"a", "b"} {
			delta := []byte(fmt.Sprintf("%s%02d|", k, i))
			want[k] = append(bytes.Clone(want[k]), delta...)
			if err := s.Append("sp", k, delta); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	for k, v := range want {
		if got, _ := r.Get("sp", k); !bytes.Equal(got, v) {
			t.Fatalf("recovered %s = %q, want %q", k, got, v)
		}
	}
}

// TestAppendChainCostIsLinear bounds, as a count of bytes, what growing
// one key by 32 appends of 64 B allocates: a chain grown in place
// allocates a small multiple of its final size, where copying it whole
// on every append allocates ~17× (quadratic in the chain length).
func TestAppendChainCostIsLinear(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncNever, SnapshotEvery: -1})
	defer s.Close()
	delta := bytes.Repeat([]byte("d"), 64)
	// Size the store's record buffer first, outside the measurement.
	if err := s.Append("sp", "warm", delta); err != nil {
		t.Fatal(err)
	}
	const appends = 32
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < appends; i++ {
		if err := s.Append("sp", "k", delta); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	final := appends * len(delta)
	got := after.TotalAlloc - before.TotalAlloc
	if got > uint64(4*final) {
		t.Fatalf("%d appends of %d B allocated %d B, want ≤ 4 × the final %d B", appends, len(delta), got, final)
	}
	t.Logf("%d appends of %d B allocated %d B (final value %d B)", appends, len(delta), got, final)
}

func TestAppendToAbsentKeyCreatesIt(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	defer s.Close()
	if err := s.Append("sp", "fresh", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("sp", "fresh"); !ok || string(got) != "x" {
		t.Fatalf("value = %q, ok=%v; want \"x\"", got, ok)
	}
}

func TestTornAppendTailKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncAlways})
	if err := s.Put("sp", "k", []byte("base|")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("sp", "k", []byte("one|")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("sp", "k", []byte("two|")); err != nil {
		t.Fatal(err)
	}
	s.Abandon()

	// Shear a few bytes off the tail: the final append becomes a torn
	// record, exactly as a crash mid-write would leave it.
	segs, err := listIndexed(dir, segmentPrefix, segmentSuffix)
	if err != nil || len(segs) == 0 {
		t.Fatalf("listIndexed: %v (%d segments)", err, len(segs))
	}
	seg := segmentPath(dir, segs[len(segs)-1])
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if !r.Stats().TruncatedTail {
		t.Fatal("expected truncated-tail recovery")
	}
	if got, ok := r.Get("sp", "k"); !ok || string(got) != "base|one|" {
		t.Fatalf("recovered value = %q, want \"base|one|\" (prefix chain)", got)
	}
}

func TestAsyncPutsCoalesceIntoFewFsyncs(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncBatched, SyncInterval: 2 * time.Millisecond})
	defer s.Close()

	const n = 500
	for i := 0; i < n; i++ {
		if err := s.PutAsync("sp", fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Records != n {
		t.Fatalf("records = %d, want %d", st.Records, n)
	}
	// A non-blocking writer stream inside the gather window must land
	// in a handful of flushes, not one per record.
	if st.Fsyncs > n/10 {
		t.Fatalf("async group commit not coalescing: %d fsyncs for %d records", st.Fsyncs, n)
	}
}

func TestWaitDurableCoversPriorWrites(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Sync: SyncBatched, SyncInterval: 5 * time.Millisecond})
	for i := 0; i < 50; i++ {
		if err := s.PutAsync("sp", fmt.Sprintf("k%d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.WaitDurable(); err != nil {
		t.Fatal(err)
	}
	// Crash without flushing: everything before WaitDurable must
	// already be on disk.
	s.Abandon()
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if got := r.Len("sp"); got != 50 {
		t.Fatalf("recovered %d keys after WaitDurable+crash, want 50", got)
	}
}

func TestAsyncCommitterOrderAndBarrier(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	defer s.Close()
	c := NewAsyncCommitter(s, AsyncOptions{MaxLag: 8})
	defer c.Close()

	if err := c.Enqueue(Mutation{Op: MutPut, Space: "sp", Key: "k", Value: []byte("a|")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		i := i
		err := c.Enqueue(Mutation{
			Op: MutAppend, Space: "sp", Key: "k",
			// Deferred encode must run on the worker, in order.
			Encode: func() ([]byte, error) { return []byte(fmt.Sprintf("%d|", i)), nil },
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	c.Barrier()
	if c.Lag() != 0 {
		t.Fatalf("lag after barrier = %d, want 0", c.Lag())
	}
	want := "a|"
	for i := 0; i < 20; i++ {
		want += fmt.Sprintf("%d|", i)
	}
	if got, ok := s.Get("sp", "k"); !ok || string(got) != want {
		t.Fatalf("value = %q, want %q", got, want)
	}
}

func TestAsyncCommitterBackpressureBounded(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	defer s.Close()
	release := make(chan struct{})
	c := NewAsyncCommitter(s, AsyncOptions{MaxLag: 4})
	defer c.Close()

	// Stall the worker on the first mutation's encode so the queue
	// fills behind it.
	if err := c.Enqueue(Mutation{Op: MutPut, Space: "sp", Key: "k0",
		Encode: func() ([]byte, error) { <-release; return []byte("v"), nil }}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	started := make(chan struct{})
	go func() {
		defer wg.Done()
		close(started)
		for i := 1; i <= 10; i++ {
			if err := c.Enqueue(Mutation{Op: MutPut, Space: "sp",
				Key: fmt.Sprintf("k%d", i), Value: []byte("v")}); err != nil {
				t.Errorf("enqueue: %v", err)
			}
		}
	}()
	<-started
	time.Sleep(20 * time.Millisecond)
	if lag := c.Lag(); lag > 4+2 {
		t.Errorf("lag %d exceeds MaxLag bound", lag)
	}
	close(release)
	wg.Wait()
	c.Barrier()
	if got := s.Len("sp"); got != 11 {
		t.Fatalf("applied %d keys, want 11", got)
	}
}

func TestAsyncCommitterCloseDrainsAndRejects(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	defer s.Close()
	c := NewAsyncCommitter(s, AsyncOptions{})
	for i := 0; i < 32; i++ {
		if err := c.Enqueue(Mutation{Op: MutPut, Space: "sp",
			Key: fmt.Sprintf("k%d", i), Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if got := s.Len("sp"); got != 32 {
		t.Fatalf("close drained %d keys, want 32", got)
	}
	if err := c.Enqueue(Mutation{Op: MutPut, Space: "sp", Key: "late"}); err != ErrClosed {
		t.Fatalf("enqueue after close = %v, want ErrClosed", err)
	}
	c.Close() // idempotent
}

func TestAsyncCommitterStrictModeStaysSynchronous(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncAlways})
	defer s.Close()
	c := NewAsyncCommitter(s, AsyncOptions{})
	defer c.Close()
	for i := 0; i < 10; i++ {
		if err := c.Enqueue(Mutation{Op: MutPut, Space: "sp",
			Key: fmt.Sprintf("k%d", i), Value: []byte("v")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.BarrierDurable(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	// SyncAlways through the committer must keep one fsync per record.
	if st.Fsyncs < st.Records {
		t.Fatalf("strict mode lost per-record fsync: %d fsyncs for %d records", st.Fsyncs, st.Records)
	}
}

func TestAsyncCommitterReportsErrors(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Sync: SyncNever})
	defer s.Close()
	var mu sync.Mutex
	var failed []string
	c := NewAsyncCommitter(s, AsyncOptions{OnError: func(m Mutation, err error) {
		mu.Lock()
		failed = append(failed, m.Key)
		mu.Unlock()
	}})
	defer c.Close()
	if err := c.Enqueue(Mutation{Op: MutPut, Space: "sp", Key: "bad",
		Encode: func() ([]byte, error) { return nil, fmt.Errorf("encode boom") }}); err != nil {
		t.Fatal(err)
	}
	if err := c.Enqueue(Mutation{Op: MutPut, Space: "sp", Key: "good", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	c.Barrier()
	mu.Lock()
	defer mu.Unlock()
	if len(failed) != 1 || failed[0] != "bad" {
		t.Fatalf("failed = %v, want [bad]", failed)
	}
	if _, ok := s.Get("sp", "good"); !ok {
		t.Fatal("good mutation not applied after failed one")
	}
}
