package workflow

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/store"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/xmltree"
)

func openStore(t *testing.T, dir string, opts store.Options) *store.Store {
	t.Helper()
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func twoStepDef(t *testing.T) *Definition {
	t.Helper()
	def, err := NewDefinition("P",
		NewSequence("main",
			NewInvoke("step1", InvokeSpec{Endpoint: "inproc://a", Operation: "opA"}),
			NewInvoke("step2", InvokeSpec{Endpoint: "inproc://b", Operation: "opB"}),
		))
	if err != nil {
		t.Fatal(err)
	}
	return def
}

func TestPersistenceJournalsLifecycle(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, store.Options{Sync: store.SyncAlways})
	defer st.Close()

	tel := telemetry.New(0)
	ri := newRecordingInvoker()
	e := NewEngine(ri)
	p := NewPersistenceService(st, tel)
	p.Attach(e)

	e.Deploy(twoStepDef(t))
	inst, err := e.Start("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := waitDone(t, inst); err != nil || st != StateCompleted {
		t.Fatalf("state=%s err=%v", st, err)
	}

	raw, ok := st.Get(SpaceInstances, inst.ID())
	if !ok {
		t.Fatalf("no durable record for %s", inst.ID())
	}
	doc, err := DecodeCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.AttrValue("", "state"); got != StateCompleted.String() {
		t.Fatalf("persisted state = %q, want completed", got)
	}
	// Creation + three activity boundaries (step1, step2, main) +
	// terminal state = 5 checkpoints.
	var expo strings.Builder
	tel.Registry().WritePrometheus(&expo)
	if !strings.Contains(expo.String(), `masc_store_instance_checkpoints_total{outcome="ok"} 5`) {
		t.Fatalf("checkpoint counter missing or wrong:\n%s", expo.String())
	}
}

// TestCrashRecoveryResumesSuspendedInstance is the acceptance scenario:
// an instance suspended mid-run survives a simulated middleware crash
// (store abandoned without flush, reopened from disk) and runs to
// completion, without repeating the work it already did.
func TestCrashRecoveryResumesSuspendedInstance(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir, store.Options{Sync: store.SyncAlways})

	ri1 := newRecordingInvoker()
	e1 := NewEngine(ri1)
	NewPersistenceService(st1, nil).Attach(e1)
	e1.Deploy(twoStepDef(t))

	inst, err := e1.CreateInstance("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Suspend from inside step1's responder: the request is in flight,
	// so the instance parks at the activity boundary after step1 and
	// before step2 — a genuine mid-run checkpoint. The responder is
	// installed before Run so there is no race with the invoker.
	ri1.respond["opA"] = func(req *soap.Envelope) (*soap.Envelope, error) {
		if err := inst.Suspend(); err != nil {
			t.Error(err)
		}
		return soap.NewRequest(xmltree.New("urn:t", "opAResponse")), nil
	}
	if err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	if !inst.AwaitState(StateSuspended, 2*time.Second) {
		t.Fatalf("instance did not park; state=%s", inst.State())
	}
	if calls := ri1.callList(); len(calls) != 1 {
		t.Fatalf("pre-crash calls = %v", calls)
	}
	st1.Abandon() // crash: no final flush

	// --- restart ---
	st2 := openStore(t, dir, store.Options{Sync: store.SyncAlways})
	defer st2.Close()
	ri2 := newRecordingInvoker()
	e2 := NewEngine(ri2)
	p2 := NewPersistenceService(st2, nil)
	p2.Attach(e2)

	rep, err := p2.Recover(e2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Recovered) != 1 || rep.Recovered[0] != inst.ID() {
		t.Fatalf("recovered = %+v, want [%s]", rep, inst.ID())
	}

	got, err := e2.Instance(inst.ID())
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := got.Run(); err != nil {
		t.Fatal(err)
	}
	if st, err := waitDone(t, got); err != nil || st != StateCompleted {
		t.Fatalf("recovered instance state=%s err=%v", st, err)
	}
	// Only step2 runs after recovery; step1 completed before the crash.
	if calls := ri2.callList(); len(calls) != 1 || calls[0] != "inproc://b opB" {
		t.Fatalf("post-recovery calls = %v", calls)
	}
	// The terminal state is durable too.
	raw, _ := st2.Get(SpaceInstances, inst.ID())
	doc, err := DecodeCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.AttrValue("", "state"); got != StateCompleted.String() {
		t.Fatalf("terminal record state = %q, want completed", got)
	}
}

func TestRecoverySkipsTerminalAndGarbageRecords(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, store.Options{Sync: store.SyncAlways})
	defer st.Close()

	done := `<instanceSnapshot xmlns="urn:masc:workflow" id="proc-9" definition="P" state="completed">
		<tree><noop name="n"/></tree></instanceSnapshot>`
	anchor, err := encodeCheckpoint(ckptDelta{full: xmltree.MustParseString(done)})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(SpaceInstances, "proc-9", anchor); err != nil {
		t.Fatal(err)
	}
	// Garbage: free text, and a bare XML snapshot without the format byte.
	if err := st.Put(SpaceInstances, "proc-bad", []byte("not xml at all")); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(SpaceInstances, "proc-v1", []byte(done)); err != nil {
		t.Fatal(err)
	}

	p := NewPersistenceService(st, nil)
	e := NewEngine(newRecordingInvoker())
	rep, err := p.Recover(e)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Recovered) != 0 || rep.Terminal != 1 || rep.Failed != 2 {
		t.Fatalf("report = %+v", rep)
	}
	if ids := e.Instances(); len(ids) != 0 {
		t.Fatalf("terminal/garbage records instantiated: %v", ids)
	}

	// The terminal record's ID is reserved: a fresh instance must not
	// reuse proc-9 and overwrite the audit trail.
	e.Deploy(twoStepDef(t))
	inst, err := e.CreateInstance("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	if inst.ID() == "proc-9" {
		t.Fatal("new instance reused a terminal record's ID")
	}
	if n, _ := numericIDSuffix(inst.ID()); n <= 9 {
		t.Fatalf("new instance ID %s not past reserved proc-9", inst.ID())
	}
}

// TestRecoveryAfterTornWALTail exercises end-to-end recovery when the
// crash additionally tore the WAL tail: the store truncates the
// garbage on open and the last intact checkpoint still resumes.
func TestRecoveryAfterTornWALTail(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir, store.Options{Sync: store.SyncAlways})

	ri1 := newRecordingInvoker()
	e1 := NewEngine(ri1)
	NewPersistenceService(st1, nil).Attach(e1)
	e1.Deploy(twoStepDef(t))
	inst, err := e1.CreateInstance("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	ri1.respond["opA"] = func(req *soap.Envelope) (*soap.Envelope, error) {
		inst.Suspend()
		return soap.NewRequest(xmltree.New("urn:t", "opAResponse")), nil
	}
	if err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	if !inst.AwaitState(StateSuspended, 2*time.Second) {
		t.Fatalf("instance did not park; state=%s", inst.State())
	}
	st1.Abandon()

	// Tear the newest segment's tail with bytes that cannot form an
	// intact record.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (err=%v)", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2 := openStore(t, dir, store.Options{Sync: store.SyncAlways})
	defer st2.Close()
	if !st2.Stats().TruncatedTail {
		t.Fatal("torn tail not detected")
	}
	ri2 := newRecordingInvoker()
	e2 := NewEngine(ri2)
	p2 := NewPersistenceService(st2, nil)
	rep, err := p2.Recover(e2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Recovered) != 1 {
		t.Fatalf("report = %+v", rep)
	}
	got, _ := e2.Instance(inst.ID())
	got.Resume()
	if err := got.Run(); err != nil {
		t.Fatal(err)
	}
	if st, err := waitDone(t, got); err != nil || st != StateCompleted {
		t.Fatalf("state=%s err=%v", st, err)
	}
}

// TestCustomizationSurvivesCrash: a dynamic instance update applied
// while suspended is journaled (via the InstanceUpdated hook) and the
// recovered instance resumes with the adapted tree.
func TestCustomizationSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir, store.Options{Sync: store.SyncAlways})

	ri1 := newRecordingInvoker()
	e1 := NewEngine(ri1)
	NewPersistenceService(st1, nil).Attach(e1)
	e1.Deploy(twoStepDef(t))
	inst, err := e1.CreateInstance("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	up := NewTreeUpdate().Insert(AtEnd, "",
		NewInvoke("audit", InvokeSpec{Endpoint: "inproc://audit", Operation: "opAudit"}))
	if err := inst.ApplyUpdate(up); err != nil {
		t.Fatal(err)
	}
	st1.Abandon()

	st2 := openStore(t, dir, store.Options{Sync: store.SyncAlways})
	defer st2.Close()
	ri2 := newRecordingInvoker()
	e2 := NewEngine(ri2)
	p2 := NewPersistenceService(st2, nil)
	rep, err := p2.Recover(e2)
	if err != nil || len(rep.Recovered) != 1 {
		t.Fatalf("report = %+v err=%v", rep, err)
	}
	got, _ := e2.Instance(inst.ID())
	if FindActivity(got.TreeCopy(), "audit") == nil {
		t.Fatal("customization lost across crash")
	}
	got.Resume()
	if err := got.Run(); err != nil {
		t.Fatal(err)
	}
	if st, err := waitDone(t, got); err != nil || st != StateCompleted {
		t.Fatalf("state=%s err=%v", st, err)
	}
	calls := ri2.callList()
	if len(calls) != 3 || calls[2] != "inproc://audit opAudit" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestForgetRemovesRecord(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, store.Options{Sync: store.SyncAlways})
	defer st.Close()
	p := NewPersistenceService(st, nil)
	e := NewEngine(newRecordingInvoker())
	p.Attach(e)
	def, _ := NewDefinition("P", NewNoOp("n"))
	e.Deploy(def)
	inst, _ := e.Start("P", nil)
	waitDone(t, inst)
	if _, ok := st.Get(SpaceInstances, inst.ID()); !ok {
		t.Fatal("record missing before Forget")
	}
	if err := p.Forget(inst.ID()); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(SpaceInstances, inst.ID()); ok {
		t.Fatal("record survived Forget")
	}
}

// TestReplicationBarrierAtFinish asserts the cluster half of the
// instance-finish barrier: an installed replication barrier runs
// before InstanceFinished returns, and installing nil clears it.
func TestReplicationBarrierAtFinish(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, store.Options{Sync: store.SyncBatched, SyncInterval: time.Millisecond})
	defer st.Close()

	ri := newRecordingInvoker()
	e := NewEngine(ri)
	p := NewPersistenceService(st, telemetry.New(0))
	defer p.Close()
	p.Attach(e)

	var calls int32
	p.SetReplicationBarrier(func() error {
		atomic.AddInt32(&calls, 1)
		return nil
	})

	e.Deploy(twoStepDef(t))
	inst, err := e.Start("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	if stt, err := waitDone(t, inst); err != nil || stt != StateCompleted {
		t.Fatalf("state=%s err=%v", stt, err)
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("replication barrier ran %d times at finish, want 1", got)
	}

	p.SetReplicationBarrier(nil)
	inst2, err := e.Start("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	if stt, err := waitDone(t, inst2); err != nil || stt != StateCompleted {
		t.Fatalf("state=%s err=%v", stt, err)
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("cleared barrier still ran (calls=%d)", got)
	}
}
