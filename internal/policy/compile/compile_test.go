package compile_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/policy"
	"github.com/masc-project/masc/internal/policy/compile"
	"github.com/masc-project/masc/internal/telemetry/decision"
	"github.com/masc-project/masc/internal/xmltree"
	"github.com/masc-project/masc/internal/xpath"
)

func parseDoc(t *testing.T, xml string) *policy.Document {
	t.Helper()
	doc, err := policy.ParseString(xml)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// fixtureDocs builds a document set with wildcard subjects and
// operations, priority ties broken by name, and cross-document
// interleavings — the cases where dispatch-table ordering could
// diverge from the repository's filter-then-sort interpreter.
func fixtureDocs(t *testing.T) []*policy.Document {
	t.Helper()
	return []*policy.Document{
		parseDoc(t, `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="zeta">
  <MonitoringPolicy name="z-any-subject" operation="getQuote">
    <PreCondition name="pre">count(//Symbol) &gt; 0</PreCondition>
  </MonitoringPolicy>
  <AdaptationPolicy name="z-mid" subject="vep:Trader" priority="5" kind="correction">
    <OnEvent type="fault.detected"/>
    <Actions><Retry maxAttempts="2"/></Actions>
  </AdaptationPolicy>
  <AdaptationPolicy name="a-tie" subject="vep:Trader" priority="5" kind="correction">
    <OnEvent type="fault.detected"/>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>
  <ProtectionPolicy name="z-wild-guard">
    <CircuitBreaker failureThreshold="9" cooldown="1s"/>
  </ProtectionPolicy>
</PolicyDocument>`),
		parseDoc(t, `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="alpha">
  <MonitoringPolicy name="a-exact" subject="vep:Trader" operation="getQuote">
    <PostCondition name="post">number(//Price) &gt; 0</PostCondition>
  </MonitoringPolicy>
  <MonitoringPolicy name="a-subject-wide" subject="vep:Trader">
    <QoSThreshold name="avail" metric="availability" min="0.99" minSamples="5"/>
  </MonitoringPolicy>
  <AdaptationPolicy name="m-high" subject="vep:Trader" priority="9" kind="correction">
    <OnEvent type="fault.detected" faultType="service.unavailable"/>
    <Actions><Substitute selection="first"/></Actions>
  </AdaptationPolicy>
  <AdaptationPolicy name="w-wild-trigger" priority="7" kind="correction">
    <OnEvent type="fault.detected"/>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>
  <ProtectionPolicy name="a-exact-guard" subject="vep:Trader">
    <Admission maxInFlight="4" maxQueue="8"/>
  </ProtectionPolicy>
</PolicyDocument>`),
	}
}

func loadAll(t *testing.T, docs []*policy.Document) *policy.Repository {
	t.Helper()
	repo := policy.NewRepository()
	for _, d := range docs {
		if err := repo.Load(d); err != nil {
			t.Fatal(err)
		}
	}
	return repo
}

func adaptNames(aps []*compile.CompiledAdaptation) []string {
	var out []string
	for _, ap := range aps {
		out = append(out, ap.Name)
	}
	return out
}

// TestDispatchTablesMatchRepository checks the compiled first-match
// tables against the repository scans in oracle_test.go over the full
// grid of subjects, operations, and trigger events: same policies, same
// order.
func TestDispatchTablesMatchRepository(t *testing.T) {
	docs := fixtureDocs(t)
	snapshot := loadAll(t, docs).Snapshot()
	cs, err := compile.Compile(docs)
	if err != nil {
		t.Fatal(err)
	}

	subjects := []string{"", "vep:Trader", "vep:Other"}
	operations := []string{"", "getQuote", "submitOrder"}
	for _, subject := range subjects {
		for _, op := range operations {
			want := oracleMonitoringFor(snapshot, subject, op)
			got := cs.MonitoringFor(subject, op)
			if len(want) != len(got) {
				t.Fatalf("MonitoringFor(%q,%q): %d vs %d policies", subject, op, len(want), len(got))
			}
			for i := range want {
				if want[i].Name != got[i].Name {
					t.Errorf("MonitoringFor(%q,%q)[%d] = %q, interpreter %q",
						subject, op, i, got[i].Name, want[i].Name)
				}
			}

			wantP := oracleProtectionFor(snapshot, subject)
			gotP := cs.ProtectionFor(subject)
			switch {
			case (wantP == nil) != (gotP == nil):
				t.Errorf("ProtectionFor(%q): nil mismatch", subject)
			case wantP != nil && wantP.Name != gotP.Name:
				t.Errorf("ProtectionFor(%q) = %q, interpreter %q", subject, gotP.Name, wantP.Name)
			}
		}
	}

	events := []event.Event{
		{Type: event.TypeFaultDetected, FaultType: "service.unavailable"},
		{Type: event.TypeFaultDetected, FaultType: "masc:policyViolation"},
		{Type: event.TypeSLAViolation},
		{Type: event.TypeMessageIntercepted},
	}
	for _, ev := range events {
		for _, subject := range subjects {
			want := oracleAdaptationFor(snapshot, ev, subject)
			got := cs.AdaptationFor(ev, subject)
			wantNames := make([]string, len(want))
			for i, ap := range want {
				wantNames[i] = ap.Name
			}
			gotNames := adaptNames(got)
			if strings.Join(wantNames, ",") != strings.Join(gotNames, ",") {
				t.Errorf("AdaptationFor(%s,%q): compiled %v, interpreter %v",
					ev.Type, subject, gotNames, wantNames)
			}
		}
	}
}

// TestManifestDeterminism: same documents, same revision and hashes —
// the revision identifies content, not the compile invocation.
func TestManifestDeterminism(t *testing.T) {
	docs := fixtureDocs(t)
	a, err := compile.Compile(docs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := compile.Compile([]*policy.Document{docs[1], docs[0]}) // order-insensitive
	if err != nil {
		t.Fatal(err)
	}
	if a.Manifest.Revision == "" || a.Manifest.Revision != b.Manifest.Revision {
		t.Fatalf("revisions differ: %q vs %q", a.Manifest.Revision, b.Manifest.Revision)
	}
	if len(a.Manifest.Documents) != 2 || a.Manifest.Documents[0].Name != "alpha" {
		t.Fatalf("manifest not sorted by name: %+v", a.Manifest.Documents)
	}
	for _, dm := range a.Manifest.Documents {
		if len(dm.SHA256) != 64 {
			t.Errorf("document %q hash %q is not a sha256 hex digest", dm.Name, dm.SHA256)
		}
	}
	mon, adapt, prot := a.Counts()
	if mon != 3 || adapt != 4 || prot != 2 {
		t.Fatalf("Counts() = %d,%d,%d; want 3,4,2", mon, adapt, prot)
	}
	if _, err := compile.Compile([]*policy.Document{docs[0], docs[0]}); err == nil {
		t.Fatal("duplicate document names compiled without error")
	}
}

// TestEnableSwapAndRollback: a failing mutation must leave both the
// document map and the published CompiledSet exactly as they were —
// the old set keeps serving.
func TestEnableSwapAndRollback(t *testing.T) {
	repo := policy.NewRepository()
	if err := compile.Enable(repo, compile.Options{}); err != nil {
		t.Fatal(err)
	}
	docs := fixtureDocs(t)
	if err := repo.ReplaceAll(docs); err != nil {
		t.Fatal(err)
	}
	before := compile.Lookup(repo)
	if before == nil {
		t.Fatal("no compiled set published after ReplaceAll")
	}

	invalid := parseDoc(t, `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="broken">
  <AdaptationPolicy name="bad" kind="customization" priority="1">
    <OnEvent type="fault.detected"/>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`)
	if err := repo.ReplaceAll([]*policy.Document{invalid}); err == nil {
		t.Fatal("ReplaceAll accepted an invalid document")
	}
	if got := compile.Lookup(repo); got != before {
		t.Fatal("rejected ReplaceAll swapped the compiled set")
	}
	if len(repo.Snapshot()) != 2 {
		t.Fatalf("document map changed: %d docs", len(repo.Snapshot()))
	}
	if err := repo.Load(invalid); err == nil {
		t.Fatal("Load accepted an invalid document")
	}
	if got := compile.Lookup(repo); got != before {
		t.Fatal("rejected Load swapped the compiled set")
	}

	// A valid single-document load publishes a new set atomically.
	update := parseDoc(t, `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="alpha">
  <MonitoringPolicy name="a-exact" subject="vep:Trader" operation="getQuote">
    <PostCondition name="post">number(//Price) &gt; 1</PostCondition>
  </MonitoringPolicy>
</PolicyDocument>`)
	if err := repo.Load(update); err != nil {
		t.Fatal(err)
	}
	after := compile.Lookup(repo)
	if after == before {
		t.Fatal("Load did not publish a new compiled set")
	}
	if after.Manifest.Revision == before.Manifest.Revision {
		t.Fatal("content change kept the same revision")
	}
	if !repo.Unload("zeta") {
		t.Fatal("Unload failed")
	}
	if ds := compile.Lookup(repo).Doc("zeta"); ds != nil {
		t.Fatal("unloaded document still in compiled set")
	}
}

// TestCheckDocumentDiagnostics: validation failures are error
// diagnostics, lint findings are warnings carrying the policy name, and
// compiled sets surface them per document.
func TestCheckDocumentDiagnostics(t *testing.T) {
	bad := parseDoc(t, `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="empty-mon">
  <MonitoringPolicy name="nothing" subject="vep:X"/>
</PolicyDocument>`)
	diags := compile.CheckDocument(bad)
	if !compile.HasErrors(diags) {
		t.Fatalf("no error diagnostic for invalid document: %+v", diags)
	}

	dead := parseDoc(t, `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="dead">
  <AdaptationPolicy name="never-fires" priority="1" kind="correction">
    <OnEvent type="no.such.event"/>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`)
	diags = compile.CheckDocument(dead)
	if compile.HasErrors(diags) {
		t.Fatalf("lint-only document reported errors: %+v", diags)
	}
	if len(diags) != 1 || diags[0].Severity != compile.SeverityWarning || diags[0].Policy != "never-fires" {
		t.Fatalf("diagnostics = %+v", diags)
	}

	cs, err := compile.Compile([]*policy.Document{dead})
	if err != nil {
		t.Fatal(err)
	}
	ds := cs.Doc("dead")
	if ds == nil || len(ds.Diagnostics) != 1 {
		t.Fatalf("compiled set lost the lint warning: %+v", ds)
	}
	if len(cs.Diagnostics) != 1 {
		t.Fatalf("set-level diagnostics = %+v", cs.Diagnostics)
	}

	// A variable its site never binds is an error naming the variable:
	// the monitor binds $instanceID and $instanceMessageCount, the
	// adaptation sites six names. A document loaded around
	// CheckDocument still compiles, with no error in its status.
	unbound := parseDoc(t, `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="unbound">
  <MonitoringPolicy name="mon" subject="vep:X">
    <PreCondition name="pre">$instanceMessageCount &lt; 9 and $faultType = ''</PreCondition>
  </MonitoringPolicy>
  <AdaptationPolicy name="adapt" priority="1" kind="correction">
    <OnEvent type="fault.detected"/>
    <Condition>$faultType != '' and $target != '' and $operation != '' and $instanceID != '' and $state = '' and $instanceMessageCount &gt;= 0 and $nosuch</Condition>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`)
	diags = compile.CheckDocument(unbound)
	if len(diags) != 2 {
		t.Fatalf("diagnostics = %+v, want two errors", diags)
	}
	for i, want := range []struct{ policy, assertion, variable string }{
		{"mon", "pre", "$faultType"}, {"adapt", "", "$nosuch"},
	} {
		d := diags[i]
		if d.Severity != compile.SeverityError || d.Policy != want.policy || d.Assertion != want.assertion ||
			!strings.Contains(d.Message, "references "+want.variable+" ") {
			t.Errorf("diagnostic %d = %+v, want an error naming %s in %s", i, d, want.variable, want.policy)
		}
	}
	cs, err = compile.Compile([]*policy.Document{unbound})
	if err != nil {
		t.Fatal(err)
	}
	if ds := cs.Doc("unbound"); len(ds.Diagnostics) != 0 {
		t.Fatalf("compiled status carries %+v", ds.Diagnostics)
	}
}

// TestLoadDir: the bundle loader reads *.xml transactionally.
func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("b.xml", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="two"><ProtectionPolicy name="g"><CircuitBreaker failureThreshold="3" cooldown="1s"/></ProtectionPolicy></PolicyDocument>`)
	write("a.xml", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="one"><ProtectionPolicy name="h" subject="vep:X"><CircuitBreaker failureThreshold="3" cooldown="1s"/></ProtectionPolicy></PolicyDocument>`)
	write("notes.txt", "ignored")

	b, err := compile.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Docs) != 2 || b.Docs[0].Name != "one" || b.Docs[1].Name != "two" {
		t.Fatalf("bundle docs = %+v", b.Docs)
	}
	if b.Files["one"] != "a.xml" || b.Files["two"] != "b.xml" {
		t.Fatalf("file map = %v", b.Files)
	}

	write("c.xml", `<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="one"><ProtectionPolicy name="dup"><CircuitBreaker failureThreshold="3" cooldown="1s"/></ProtectionPolicy></PolicyDocument>`)
	if _, err := compile.LoadDir(dir); err == nil {
		t.Fatal("duplicate document name across files accepted")
	}
	os.Remove(filepath.Join(dir, "c.xml"))

	write("broken.xml", "<PolicyDocument")
	if _, err := compile.LoadDir(dir); err == nil {
		t.Fatal("unparseable bundle file accepted")
	}
}

// TestAdaptationGate pins the one ECA applicability gate: every
// rejection reason, the assertions each renders, and that the
// condition's inputs are built only when a condition is evaluated.
func TestAdaptationGate(t *testing.T) {
	repo := loadAll(t, []*policy.Document{parseDoc(t, `
<PolicyDocument xmlns="urn:masc:ws-policy4masc" name="gate">
  <AdaptationPolicy name="gated" subject="P" priority="2">
    <OnEvent type="fault.detected"/>
    <Condition>$n &gt; 1</Condition>
    <StateBefore>base</StateBefore>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>
  <AdaptationPolicy name="open" subject="P" priority="1">
    <OnEvent type="fault.detected"/>
    <Actions><Skip/></Actions>
  </AdaptationPolicy>
</PolicyDocument>`)})
	aps := compile.Lookup(repo).AdaptationFor(event.Event{Type: event.TypeFaultDetected}, "P")
	if got := strings.Join(adaptNames(aps), ","); got != "gated,open" {
		t.Fatalf("AdaptationFor = %q", got)
	}
	gated, open := aps[0], aps[1]
	root := xmltree.New("", "vars")
	vars := func(name string, n float64) func() (*xmltree.Element, xpath.Context) {
		return func() (*xmltree.Element, xpath.Context) {
			return root, xpath.Context{Vars: map[string]xpath.Value{name: xpath.Number(n)}}
		}
	}
	unreachable := func() (*xmltree.Element, xpath.Context) {
		t.Fatal("condition inputs built without a condition to evaluate")
		return nil, xpath.Context{}
	}

	cases := []struct {
		name      string
		state     string
		haveState bool
		input     func() (*xmltree.Element, xpath.Context)
		reason    string
		want      []decision.Assertion
	}{
		{"no state", "", false, unreachable, "no_process_state", []decision.Assertion{
			{Name: "state-before", Value: "seen", Reason: "no_process_state"},
			{Name: "condition", Value: "$n > 1", Skipped: true, Reason: "short_circuit"}}},
		{"wrong state", "other", true, unreachable, "state_mismatch", []decision.Assertion{
			{Name: "state-before", Value: "seen", Reason: "state_mismatch"},
			{Name: "condition", Value: "$n > 1", Skipped: true, Reason: "short_circuit"}}},
		{"condition false", "base", true, vars("n", 1), "condition_false", []decision.Assertion{
			{Name: "state-before", Value: "seen", Matched: true},
			{Name: "condition", Value: "$n > 1", Reason: "condition_false"}}},
		{"condition error", "base", true, vars("unbound", 0), "condition_error", []decision.Assertion{
			{Name: "state-before", Value: "seen", Matched: true},
			{Name: "condition", Value: "$n > 1", Reason: "condition_error"}}},
		{"holds", "base", true, vars("n", 2), "", []decision.Assertion{
			{Name: "state-before", Value: "seen", Matched: true},
			{Name: "condition", Value: "$n > 1", Matched: true}}},
	}
	for _, c := range cases {
		ok, reason := gated.Applies(c.state, c.haveState, c.input)
		if ok != (c.reason == "") || reason != c.reason {
			t.Errorf("%s: Applies = %v, %q; want reason %q", c.name, ok, reason, c.reason)
		}
		if got := gated.GateAssertions(reason, "seen"); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: GateAssertions = %+v, want %+v", c.name, got, c.want)
		}
	}

	if ok, reason := open.Applies("", false, unreachable); !ok || reason != "" {
		t.Errorf("ungated policy: Applies = %v, %q", ok, reason)
	}
	if got := open.GateAssertions("", ""); got != nil {
		t.Errorf("ungated policy renders assertions: %+v", got)
	}
}
