package compile_test

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/masc-project/masc/internal/bus"
	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/monitor"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/policy/compile"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/telemetry/slo"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/xmltree"
)

// The dispatch grid: every subject, operation and event the generated
// and fixture policies can be scoped to or triggered by, plus ones no
// policy names.
var (
	gridSubjects   = []string{"", "vep:Trader", "vep:Other", "vep:Unknown"}
	gridOperations = []string{"", "getQuote", "submitOrder"}
	gridEvents     = []event.Event{
		{Type: event.TypeFaultDetected},
		{Type: event.TypeFaultDetected, FaultType: "service.unavailable"},
		{Type: event.TypeFaultDetected, FaultType: "masc:policyViolation"},
		{Type: event.TypeSLAViolation},
		{Type: event.TypeSLAViolation, FaultType: "service.unavailable"},
		{Type: event.TypeMessageIntercepted},
	}
)

// oracleDiff lists every grid point where cs answers differently from
// the repository scans over docs (sorted by name). Monitoring entries
// are identified by (document, name), adaptation and protection
// entries by the source policy they carry.
func oracleDiff(cs *compile.CompiledSet, docs []*policy.Document) []string {
	monDoc := map[*policy.MonitoringPolicy]string{}
	for _, d := range docs {
		for _, mp := range d.Monitoring {
			monDoc[mp] = d.Name
		}
	}
	var diffs []string
	for _, subject := range gridSubjects {
		if got, want := cs.ProtectionFor(subject), oracleProtectionFor(docs, subject); got != want {
			diffs = append(diffs, fmt.Sprintf("ProtectionFor(%q) = %v, oracle %v", subject, got, want))
		}
		for _, op := range gridOperations {
			var got, want []string
			for _, mp := range cs.MonitoringFor(subject, op) {
				got = append(got, mp.Doc+"/"+mp.Name)
			}
			for _, mp := range oracleMonitoringFor(docs, subject, op) {
				want = append(want, monDoc[mp]+"/"+mp.Name)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				diffs = append(diffs, fmt.Sprintf("MonitoringFor(%q,%q) = %v, oracle %v", subject, op, got, want))
			}
			for _, ev := range gridEvents {
				ev.Operation = op
				gotA := cs.AdaptationFor(ev, subject)
				wantA := oracleAdaptationFor(docs, ev, subject)
				same := len(gotA) == len(wantA)
				for i := 0; same && i < len(gotA); i++ {
					same = gotA[i].AdaptationPolicy == wantA[i]
				}
				if !same {
					diffs = append(diffs, fmt.Sprintf("AdaptationFor(%s/%s,%q,%q) = %v, oracle %d policies",
						ev.Type, ev.FaultType, subject, op, adaptNames(gotA), len(wantA)))
				}
			}
		}
	}
	return diffs
}

// genDispatchDocs builds a random valid document set: up to three
// documents, named out of load order, each mixing exact, wildcard and
// operation-scoped policies of all three classes. Adaptation names and
// priorities come from small pools, so priority ties, and name ties
// across documents, are common; some triggers name no event type.
func genDispatchDocs(rng *rand.Rand) []*policy.Document {
	pick := func(pool ...string) string { return pool[rng.Intn(len(pool))] }
	scope := func() policy.Scope {
		return policy.Scope{
			Subject:   pick("", "vep:Trader", "vep:Trader", "vep:Other"),
			Operation: pick("", "", "getQuote", "submitOrder"),
		}
	}
	var docs []*policy.Document
	for _, name := range []string{"zeta", "alpha", "mid"}[:1+rng.Intn(3)] {
		d := &policy.Document{Name: name}
		for i := rng.Intn(4); i > 0; i-- {
			d.Monitoring = append(d.Monitoring, &policy.MonitoringPolicy{
				Name:       fmt.Sprintf("m%d", i),
				Scope:      scope(),
				Thresholds: []*policy.QoSThreshold{{Metric: policy.MetricAvailability, MinValue: 0.9}},
			})
		}
		pool := []string{"a", "b", "c", "d", "e"}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		for _, an := range pool[:rng.Intn(len(pool)+1)] {
			trigger := policy.Trigger{EventType: event.Type(pick("", string(event.TypeFaultDetected),
				string(event.TypeFaultDetected), string(event.TypeSLAViolation)))}
			if trigger.EventType != "" {
				trigger.FaultType = pick("", "", "service.unavailable")
			}
			d.Adaptation = append(d.Adaptation, &policy.AdaptationPolicy{
				Name:     an,
				Scope:    scope(),
				Kind:     policy.KindCorrection,
				Priority: rng.Intn(3),
				Layer:    policy.LayerMessaging,
				Trigger:  trigger,
				Actions:  []policy.Action{policy.SkipAction{}},
			})
		}
		for i := rng.Intn(3); i > 0; i-- {
			d.Protection = append(d.Protection, &policy.ProtectionPolicy{
				Name:      fmt.Sprintf("g%d", i),
				Scope:     policy.Scope{Subject: pick("", "vep:Trader", "vep:Other")},
				Admission: &policy.AdmissionSpec{MaxInFlight: 4},
			})
		}
		docs = append(docs, d)
	}
	return docs
}

// TestQuickDispatchMatchesOracle holds the compiled tables of random
// document sets to the repository scans on the whole grid, and checks
// that adaptation dispatch is non-increasing in (priority, name).
func TestQuickDispatchMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		docs := genDispatchDocs(rand.New(rand.NewSource(seed)))
		r := policy.NewRepository()
		if err := r.ReplaceAll(docs); err != nil {
			t.Fatalf("seed %d generated an invalid set: %v", seed, err)
		}
		cs := compile.Lookup(r)
		if diffs := oracleDiff(cs, r.Snapshot()); len(diffs) > 0 {
			t.Logf("seed %d: %d differences, first: %s", seed, len(diffs), diffs[0])
			return false
		}
		for _, ev := range gridEvents {
			got := cs.AdaptationFor(ev, "vep:Trader")
			for i := 1; i < len(got); i++ {
				if got[i].Priority > got[i-1].Priority ||
					got[i].Priority == got[i-1].Priority && got[i].Name < got[i-1].Name {
					t.Logf("seed %d: %s dispatch out of order: %v", seed, ev.Type, adaptNames(got))
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchCompilesUnconfiguredRepository: a repository nobody
// called Enable on — the one bus.New builds, or a bare one handed to
// the monitor or to the SLO derivation — is compiled by the component's
// own first lookup, and its answers match the oracle.
func TestDispatchCompilesUnconfiguredRepository(t *testing.T) {
	load := func(t *testing.T, r *policy.Repository) {
		t.Helper()
		if err := r.ReplaceAll(fixtureDocs(t)); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		// repo returns the repository the component dispatches from,
		// after load and the component's own first lookup.
		repo func(t *testing.T) *policy.Repository
	}{
		{"bus.New", func(t *testing.T) *policy.Repository {
			b := bus.New(transport.NewNetwork())
			load(t, b.Policies())
			v, err := b.CreateVEP(bus.VEPConfig{Name: "Trader", Services: []string{"inproc://trader"}})
			if err != nil {
				t.Fatal(err)
			}
			if pp := v.Protection(); pp == nil || pp.Name != "a-exact-guard" {
				t.Fatalf("VEP protection = %+v, want a-exact-guard", pp)
			}
			return b.Policies()
		}},
		{"monitor.New", func(t *testing.T) *policy.Repository {
			r := policy.NewRepository()
			load(t, r)
			m := monitor.New(r)
			env := soap.NewRequest(xmltree.New("urn:t", "getQuote"))
			if v := m.CheckRequest("vep:Trader", "getQuote", env, nil); v == nil || v.Policy != "z-any-subject" {
				t.Fatalf("CheckRequest violation = %+v, want z-any-subject's pre-condition", v)
			}
			return r
		}},
		{"slo.DeriveObjectives", func(t *testing.T) *policy.Repository {
			r := policy.NewRepository()
			load(t, r)
			objs := slo.DeriveObjectives(r, []string{"vep:Trader"}, slo.Objective{})
			if len(objs) != 1 || objs[0].Source != "a-subject-wide" {
				t.Fatalf("objectives = %+v, want one from a-subject-wide", objs)
			}
			return r
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := c.repo(t)
			if _, ok := r.Compiled().(*compile.CompiledSet); !ok {
				t.Fatal("component dispatched without publishing a compiled set")
			}
			cs := compile.Lookup(r)
			if cs == nil {
				t.Fatal("Lookup returned nil")
			}
			for _, d := range oracleDiff(cs, r.Snapshot()) {
				t.Error(d)
			}
		})
	}
}
