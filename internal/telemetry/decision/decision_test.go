package decision

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/telemetry"
)

func TestRecorderAssignsIDsAndKeepsOrder(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRecorder(8, reg)
	for i := 0; i < 5; i++ {
		rec := r.Record(Record{Site: SiteMonitor, Policy: "p", Verdict: VerdictPassed})
		if rec.Seq != uint64(i+1) {
			t.Fatalf("seq = %d, want %d", rec.Seq, i+1)
		}
		if want := fmt.Sprintf("urn:masc:decision:%d", i+1); rec.ID != want {
			t.Fatalf("id = %q, want %q", rec.ID, want)
		}
		if rec.Time.IsZero() {
			t.Fatal("time not stamped")
		}
	}
	got := r.Records(Query{})
	if len(got) != 5 {
		t.Fatalf("len = %d, want 5", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("records out of order: %d before %d", got[i-1].Seq, got[i].Seq)
		}
	}
}

func TestRecorderEvictsOldestAndCounts(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRecorder(4, reg)
	for i := 0; i < 10; i++ {
		r.Record(Record{Site: SiteBus, Policy: "p", Verdict: VerdictMatched})
	}
	got := r.Records(Query{})
	if len(got) != 4 {
		t.Fatalf("ring len = %d, want 4", len(got))
	}
	if got[0].Seq != 7 || got[3].Seq != 10 {
		t.Fatalf("ring holds seqs %d..%d, want 7..10", got[0].Seq, got[3].Seq)
	}
	ev := reg.Counter("masc_decision_ring_evictions_total", "").With().Value()
	if ev != 6 {
		t.Fatalf("evictions = %d, want 6", ev)
	}
	evals, matches := r.Counts()
	if evals != 10 || matches != 10 {
		t.Fatalf("counts = %d/%d, want 10/10", evals, matches)
	}
}

// TestRecorderEvictionCounterTracksOverflow: filling the ring exactly
// evicts nothing; every record past capacity evicts exactly one.
func TestRecorderEvictionCounterTracksOverflow(t *testing.T) {
	const capacity = 4
	reg := telemetry.NewRegistry()
	r := NewRecorder(capacity, reg)
	evictions := reg.Counter("masc_decision_ring_evictions_total", "").With()
	for i := 1; i <= capacity+3; i++ {
		r.Record(Record{Site: SiteBus, Policy: "p", Verdict: VerdictPassed})
		want := uint64(0)
		if i > capacity {
			want = uint64(i - capacity)
		}
		if got := evictions.Value(); got != want {
			t.Fatalf("after %d records: evictions = %d, want %d", i, got, want)
		}
	}
}

func TestRecorderQueryFilters(t *testing.T) {
	r := NewRecorder(32, nil)
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	r.Record(Record{Time: base, Site: SiteMonitor, Policy: "mon", Subject: "vep:A",
		Conversation: "c1", Verdict: VerdictPassed})
	r.Record(Record{Time: base.Add(time.Second), Site: SiteDecision, Policy: "adapt",
		Subject: "vep:A", Instance: "inst-1", Conversation: "c1", Trace: "t1",
		Verdict: VerdictMatched})
	r.Record(Record{Time: base.Add(2 * time.Second), Site: SiteBus, Policy: "adapt",
		Subject: "vep:B", Conversation: "c2", Verdict: VerdictRejected, Reason: "condition_false"})

	cases := []struct {
		name string
		q    Query
		want int
	}{
		{"all", Query{}, 3},
		{"policy", Query{Policy: "adapt"}, 2},
		{"subject", Query{Subject: "vep:A"}, 2},
		{"conversation", Query{Conversation: "c1"}, 2},
		{"instance", Query{Instance: "inst-1"}, 1},
		{"trace", Query{Trace: "t1"}, 1},
		{"site", Query{Site: SiteBus}, 1},
		{"verdict", Query{Verdict: VerdictMatched}, 1},
		{"since", Query{Since: base.Add(time.Second)}, 2},
		{"limit", Query{Limit: 1}, 1},
		{"combined", Query{Policy: "adapt", Conversation: "c1"}, 1},
	}
	for _, tc := range cases {
		if got := len(r.Records(tc.q)); got != tc.want {
			t.Errorf("%s: got %d records, want %d", tc.name, got, tc.want)
		}
	}
	if got := r.Records(Query{Limit: 1}); got[0].Seq != 3 {
		t.Fatalf("limit keeps newest: seq %d, want 3", got[0].Seq)
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(Record{Policy: "p"})
	r.SetSink(nil)
	if r.Len() != 0 || r.Records(Query{}) != nil {
		t.Fatal("nil recorder must be empty")
	}
	e, m := r.Counts()
	if e != 0 || m != 0 {
		t.Fatal("nil recorder counts must be zero")
	}
}

func TestRecorderConcurrentRecordAndQuery(t *testing.T) {
	r := NewRecorder(64, telemetry.NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Record(Record{Site: SiteMonitor, Policy: "p", Verdict: VerdictPassed})
				r.Records(Query{Limit: 10})
			}
		}()
	}
	wg.Wait()
	evals, _ := r.Counts()
	if evals != 800 {
		t.Fatalf("evaluations = %d, want 800", evals)
	}
}

func TestRecorderMetricsFamilies(t *testing.T) {
	reg := telemetry.NewRegistry()
	r := NewRecorder(8, reg)
	r.Record(Record{Site: SiteMonitor, Policy: "mon", Verdict: VerdictMatched,
		Latency: 2 * time.Millisecond})
	if missing := reg.LintExposition(); len(missing) != 0 {
		t.Fatalf("families missing HELP: %v", missing)
	}
	if v := reg.Counter("masc_decision_verdicts_total", "", "policy", "verdict").
		With("mon", "matched").Value(); v != 1 {
		t.Fatalf("verdict counter = %d, want 1", v)
	}
}

func TestHandlerFiltersAndLimits(t *testing.T) {
	r := NewRecorder(16, nil)
	for i := 0; i < 5; i++ {
		v := VerdictPassed
		if i%2 == 0 {
			v = VerdictMatched
		}
		r.Record(Record{Site: SiteMonitor, Policy: "mon", Conversation: "c1", Verdict: v})
	}
	h := Handler(r)

	get := func(url string) Page {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
		if w.Code != 200 {
			t.Fatalf("GET %s: status %d: %s", url, w.Code, w.Body.String())
		}
		var p Page
		if err := json.Unmarshal(w.Body.Bytes(), &p); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", url, err)
		}
		return p
	}

	if p := get("/decisions"); p.Count != 5 {
		t.Fatalf("unfiltered count = %d, want 5", p.Count)
	}
	if p := get("/decisions?verdict=matched"); p.Count != 3 {
		t.Fatalf("verdict filter count = %d, want 3", p.Count)
	}
	if p := get("/decisions?limit=2"); p.Count != 2 || p.Records[1].Seq != 5 {
		t.Fatalf("limit page wrong: %+v", p)
	}
	if p := get("/decisions?conversation=nope"); p.Count != 0 || p.Records == nil {
		t.Fatalf("empty page must be [], got %+v", p)
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/decisions?since=garbage", nil))
	if w.Code != 400 {
		t.Fatalf("bad since: status %d, want 400", w.Code)
	}
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/decisions", nil))
	if w.Code != 405 {
		t.Fatalf("POST: status %d, want 405", w.Code)
	}
}
