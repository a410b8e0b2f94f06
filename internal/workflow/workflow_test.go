package workflow

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/xmltree"
	"github.com/masc-project/masc/internal/xpath"
)

// recordingInvoker logs invocations and answers from a script.
type recordingInvoker struct {
	mu    sync.Mutex
	calls []string // "endpoint operation"
	// respond maps operation name to a handler; missing = echo.
	respond map[string]func(req *soap.Envelope) (*soap.Envelope, error)
	// seenInstanceIDs records the correlation header of each request.
	seenInstanceIDs []string
}

func newRecordingInvoker() *recordingInvoker {
	return &recordingInvoker{respond: make(map[string]func(*soap.Envelope) (*soap.Envelope, error))}
}

func (ri *recordingInvoker) Invoke(_ context.Context, endpoint string, req *soap.Envelope) (*soap.Envelope, error) {
	a := soap.ReadAddressing(req)
	ri.mu.Lock()
	ri.calls = append(ri.calls, endpoint+" "+a.Action)
	ri.seenInstanceIDs = append(ri.seenInstanceIDs, soap.ProcessInstanceID(req))
	h := ri.respond[a.Action]
	ri.mu.Unlock()
	if h != nil {
		return h(req)
	}
	resp := xmltree.New("urn:t", a.Action+"Response")
	resp.Append(xmltree.NewText("urn:t", "echo", req.PayloadName().Local))
	return soap.NewRequest(resp), nil
}

func (ri *recordingInvoker) callList() []string {
	ri.mu.Lock()
	defer ri.mu.Unlock()
	out := make([]string, len(ri.calls))
	copy(out, ri.calls)
	return out
}

func el(t *testing.T, doc string) *xmltree.Element {
	t.Helper()
	e, err := xmltree.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func waitDone(t *testing.T, in *Instance) (State, error) {
	t.Helper()
	st, err := in.Wait(5 * time.Second)
	if in.State() == StateRunning || in.State() == StateCreated {
		t.Fatalf("instance still %s", in.State())
	}
	return st, err
}

func TestSequenceOfInvokes(t *testing.T) {
	ri := newRecordingInvoker()
	e := NewEngine(ri)
	def, err := NewDefinition("P",
		NewSequence("main",
			NewInvoke("step1", InvokeSpec{Endpoint: "inproc://a", Operation: "opA"}),
			NewInvoke("step2", InvokeSpec{Endpoint: "inproc://b", Operation: "opB"}),
		))
	if err != nil {
		t.Fatal(err)
	}
	e.Deploy(def)
	inst, err := e.Start("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := waitDone(t, inst)
	if err != nil || st != StateCompleted {
		t.Fatalf("state=%s err=%v", st, err)
	}
	calls := ri.callList()
	if len(calls) != 2 || calls[0] != "inproc://a opA" || calls[1] != "inproc://b opB" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestInstanceIDStampedOnMessages(t *testing.T) {
	ri := newRecordingInvoker()
	e := NewEngine(ri)
	def, _ := NewDefinition("P", NewInvoke("i", InvokeSpec{Endpoint: "x", Operation: "op"}))
	e.Deploy(def)
	inst, err := e.Start("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, inst)
	if len(ri.seenInstanceIDs) != 1 || ri.seenInstanceIDs[0] != inst.ID() {
		t.Fatalf("correlated IDs = %v, want [%s]", ri.seenInstanceIDs, inst.ID())
	}
}

func TestVariablesFlowThroughInvokes(t *testing.T) {
	ri := newRecordingInvoker()
	ri.respond["analyze"] = func(req *soap.Envelope) (*soap.Envelope, error) {
		amount := req.Payload.ChildText("", "amount")
		resp := xmltree.New("", "analyzeResponse")
		resp.Append(xmltree.NewText("", "verdict", "buy-"+amount))
		return soap.NewRequest(resp), nil
	}
	e := NewEngine(ri)
	def, _ := NewDefinition("P",
		NewInvoke("analyze", InvokeSpec{
			Endpoint: "svc", Operation: "analyze",
			InputVar: "order", OutputVar: "analysis",
		}),
		"order", "analysis")
	e.Deploy(def)
	inst, err := e.Start("P", map[string]*xmltree.Element{
		"order": el(t, `<analyze><amount>500</amount></analyze>`),
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := waitDone(t, inst)
	if err != nil || st != StateCompleted {
		t.Fatalf("state=%s err=%v", st, err)
	}
	analysis, ok := inst.GetVar("analysis")
	if !ok {
		t.Fatal("output variable not set")
	}
	if got := analysis.ChildText("", "verdict"); got != "buy-500" {
		t.Fatalf("verdict = %q", got)
	}
}

func TestIfBranching(t *testing.T) {
	run := func(amount string) []string {
		ri := newRecordingInvoker()
		e := NewEngine(ri)
		cond := xpath.MustCompile("number(//order/req/amount) > 100")
		def, _ := NewDefinition("P",
			NewIf("check", cond,
				NewInvoke("big", InvokeSpec{Endpoint: "big", Operation: "big"}),
				NewInvoke("small", InvokeSpec{Endpoint: "small", Operation: "small"}),
			), "order")
		e.Deploy(def)
		inst, err := e.Start("P", map[string]*xmltree.Element{
			"order": el(t, `<req><amount>`+amount+`</amount></req>`),
		})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, inst)
		return ri.callList()
	}
	if calls := run("500"); len(calls) != 1 || calls[0] != "big big" {
		t.Fatalf("big branch calls = %v", calls)
	}
	if calls := run("50"); len(calls) != 1 || calls[0] != "small small" {
		t.Fatalf("small branch calls = %v", calls)
	}
}

func TestIfWithoutElse(t *testing.T) {
	ri := newRecordingInvoker()
	e := NewEngine(ri)
	def, _ := NewDefinition("P",
		NewIf("check", xpath.MustCompile("false()"),
			NewInvoke("never", InvokeSpec{Endpoint: "x", Operation: "op"}), nil))
	e.Deploy(def)
	inst, _ := e.Start("P", nil)
	st, err := waitDone(t, inst)
	if err != nil || st != StateCompleted {
		t.Fatalf("state=%s err=%v", st, err)
	}
	if len(ri.callList()) != 0 {
		t.Fatal("else-less false condition invoked something")
	}
}

func TestWhileLoopReExecutesBody(t *testing.T) {
	ri := newRecordingInvoker()
	count := 0
	ri.respond["tick"] = func(*soap.Envelope) (*soap.Envelope, error) {
		count++
		resp := xmltree.New("", "tickResponse")
		resp.Append(xmltree.NewText("", "n", fmt.Sprint(count)))
		return soap.NewRequest(resp), nil
	}
	e := NewEngine(ri)
	def, _ := NewDefinition("P",
		NewSequence("main",
			NewAssign("init", Assignment{To: "counter", Literal: el(t, `<n>0</n>`)}),
			NewWhile("loop", xpath.MustCompile("number(//counter/n) < 3"),
				NewSequence("body",
					NewInvoke("tick", InvokeSpec{Endpoint: "x", Operation: "tick", OutputVar: "tickResp"}),
					NewAssign("bump", Assignment{To: "counter", From: xpath.MustCompile("//tickResp/tickResponse/n")}),
				),
			),
		), "counter", "tickResp")
	e.Deploy(def)
	inst, err := e.Start("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := waitDone(t, inst)
	if err != nil || st != StateCompleted {
		t.Fatalf("state=%s err=%v", st, err)
	}
	if count != 3 {
		t.Fatalf("loop body ran %d times, want 3", count)
	}
}

func TestParallelRunsAllBranches(t *testing.T) {
	ri := newRecordingInvoker()
	e := NewEngine(ri)
	def, _ := NewDefinition("P",
		NewParallel("settle",
			NewInvoke("registry", InvokeSpec{Endpoint: "reg", Operation: "transferOwnership"}),
			NewInvoke("payment", InvokeSpec{Endpoint: "pay", Operation: "transferFunds"}),
		))
	e.Deploy(def)
	inst, _ := e.Start("P", nil)
	st, err := waitDone(t, inst)
	if err != nil || st != StateCompleted {
		t.Fatalf("state=%s err=%v", st, err)
	}
	calls := ri.callList()
	if len(calls) != 2 {
		t.Fatalf("calls = %v", calls)
	}
}

func TestParallelBranchErrorPropagates(t *testing.T) {
	ri := newRecordingInvoker()
	ri.respond["bad"] = func(*soap.Envelope) (*soap.Envelope, error) {
		return soap.NewFaultEnvelope(soap.FaultServer, "boom"), nil
	}
	e := NewEngine(ri)
	def, _ := NewDefinition("P",
		NewParallel("par",
			NewInvoke("ok", InvokeSpec{Endpoint: "a", Operation: "good"}),
			NewInvoke("fail", InvokeSpec{Endpoint: "b", Operation: "bad"}),
		))
	e.Deploy(def)
	inst, _ := e.Start("P", nil)
	st, err := waitDone(t, inst)
	if st != StateFaulted {
		t.Fatalf("state = %s, want faulted", st)
	}
	var fe *InvokeFaultError
	if !errors.As(err, &fe) || fe.Activity != "fail" {
		t.Fatalf("err = %v", err)
	}
}

func TestScopeCatchesFault(t *testing.T) {
	ri := newRecordingInvoker()
	ri.respond["explode"] = func(*soap.Envelope) (*soap.Envelope, error) {
		return nil, errors.New("service on fire")
	}
	e := NewEngine(ri)
	def, _ := NewDefinition("P",
		NewScope("guard",
			NewInvoke("risky", InvokeSpec{Endpoint: "x", Operation: "explode"}),
			NewInvoke("recover", InvokeSpec{Endpoint: "y", Operation: "compensate"}),
		), "fault")
	e.Deploy(def)
	inst, _ := e.Start("P", nil)
	st, err := waitDone(t, inst)
	if err != nil || st != StateCompleted {
		t.Fatalf("state=%s err=%v (fault should have been handled)", st, err)
	}
	calls := ri.callList()
	if len(calls) != 2 || calls[1] != "y compensate" {
		t.Fatalf("calls = %v", calls)
	}
	fv, ok := inst.GetVar("fault")
	if !ok || !strings.Contains(fv.ChildText("", "message"), "service on fire") {
		t.Fatalf("fault variable = %v", fv)
	}
}

func TestScopeWithoutCatchPropagates(t *testing.T) {
	ri := newRecordingInvoker()
	ri.respond["explode"] = func(*soap.Envelope) (*soap.Envelope, error) {
		return nil, errors.New("boom")
	}
	e := NewEngine(ri)
	def, _ := NewDefinition("P",
		NewScope("guard", NewInvoke("risky", InvokeSpec{Endpoint: "x", Operation: "explode"}), nil))
	e.Deploy(def)
	inst, _ := e.Start("P", nil)
	st, _ := waitDone(t, inst)
	if st != StateFaulted {
		t.Fatalf("state = %s, want faulted", st)
	}
}

func TestTerminateActivity(t *testing.T) {
	ri := newRecordingInvoker()
	e := NewEngine(ri)
	def, _ := NewDefinition("P",
		NewSequence("main",
			NewTerminate("stop"),
			NewInvoke("never", InvokeSpec{Endpoint: "x", Operation: "op"}),
		))
	e.Deploy(def)
	inst, _ := e.Start("P", nil)
	st, _ := waitDone(t, inst)
	if st != StateTerminated {
		t.Fatalf("state = %s, want terminated", st)
	}
	if len(ri.callList()) != 0 {
		t.Fatal("activity after terminate ran")
	}
}

func TestInvokeTimeout(t *testing.T) {
	slow := transport.InvokerFunc(func(ctx context.Context, _ string, _ *soap.Envelope) (*soap.Envelope, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(10 * time.Second):
			return nil, nil
		}
	})
	e := NewEngine(slow)
	def, _ := NewDefinition("P",
		NewInvoke("slow", InvokeSpec{Endpoint: "x", Operation: "op", Timeout: 30 * time.Millisecond}))
	e.Deploy(def)
	inst, _ := e.Start("P", nil)
	st, err := waitDone(t, inst)
	if st != StateFaulted {
		t.Fatalf("state = %s", st)
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want TimeoutError", err)
	}
	if !errors.Is(err, transport.ErrTimeout) {
		t.Fatal("TimeoutError must unwrap to transport.ErrTimeout")
	}
}

func TestAdjustTimeoutRescuesInFlightInvoke(t *testing.T) {
	release := make(chan struct{})
	slow := transport.InvokerFunc(func(ctx context.Context, _ string, _ *soap.Envelope) (*soap.Envelope, error) {
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: cancelled", transport.ErrTimeout)
		case <-release:
			return soap.NewRequest(xmltree.New("", "ok")), nil
		}
	})
	e := NewEngine(slow)
	def, _ := NewDefinition("P",
		NewInvoke("slow", InvokeSpec{Endpoint: "x", Operation: "op", Timeout: 80 * time.Millisecond}))
	e.Deploy(def)
	inst, err := e.Start("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Raise the timeout while the invoke is in flight, then release the
	// service after the original deadline would have fired.
	if err := inst.AdjustInvokeTimeout("slow", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond) // past the original 80ms deadline
	close(release)
	st, err := waitDone(t, inst)
	if err != nil || st != StateCompleted {
		t.Fatalf("state=%s err=%v (raised timeout should rescue the invoke)", st, err)
	}
}

func TestSuspendResume(t *testing.T) {
	ri := newRecordingInvoker()
	gate := make(chan struct{})
	ri.respond["first"] = func(*soap.Envelope) (*soap.Envelope, error) {
		close(gate)
		return soap.NewRequest(xmltree.New("", "firstResponse")), nil
	}
	e := NewEngine(ri)
	def, _ := NewDefinition("P",
		NewSequence("main",
			NewInvoke("a", InvokeSpec{Endpoint: "x", Operation: "first"}),
			NewInvoke("b", InvokeSpec{Endpoint: "x", Operation: "second"}),
		))
	e.Deploy(def)

	inst, err := e.CreateInstance("P", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Suspend(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	if !inst.AwaitState(StateSuspended, time.Second) {
		t.Fatalf("instance did not park; state=%s", inst.State())
	}
	if len(ri.callList()) != 0 {
		t.Fatal("suspended instance invoked a service")
	}
	if err := inst.Resume(); err != nil {
		t.Fatal(err)
	}
	st, err := waitDone(t, inst)
	if err != nil || st != StateCompleted {
		t.Fatalf("state=%s err=%v", st, err)
	}
	if len(ri.callList()) != 2 {
		t.Fatalf("calls after resume = %v", ri.callList())
	}
	_ = gate
}

func TestTerminateInstanceMidRun(t *testing.T) {
	started := make(chan struct{})
	blocked := transport.InvokerFunc(func(ctx context.Context, _ string, _ *soap.Envelope) (*soap.Envelope, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	e := NewEngine(blocked)
	def, _ := NewDefinition("P", NewInvoke("i", InvokeSpec{Endpoint: "x", Operation: "op", Timeout: time.Hour}))
	e.Deploy(def)
	inst, _ := e.Start("P", nil)
	<-started
	inst.Terminate()
	st, _ := waitDone(t, inst)
	if st != StateTerminated {
		t.Fatalf("state = %s", st)
	}
}

func TestTerminateCreatedInstance(t *testing.T) {
	e := NewEngine(newRecordingInvoker())
	def, _ := NewDefinition("P", NewNoOp("n"))
	e.Deploy(def)
	inst, _ := e.CreateInstance("P", nil)
	inst.Terminate()
	st, _ := waitDone(t, inst)
	if st != StateTerminated {
		t.Fatalf("state = %s", st)
	}
}

func TestAssignCopyAndLiteral(t *testing.T) {
	e := NewEngine(newRecordingInvoker())
	def, _ := NewDefinition("P",
		NewSequence("main",
			NewAssign("lit", Assignment{To: "x", Literal: el(t, `<data><v>7</v></data>`)}),
			NewAssign("cp", Assignment{To: "y", From: xpath.MustCompile("//x/data/v")}),
			NewAssign("scalar", Assignment{To: "z", From: xpath.MustCompile("number(//x/data/v) * 2")}),
		), "x", "y", "z")
	e.Deploy(def)
	inst, _ := e.Start("P", nil)
	st, err := waitDone(t, inst)
	if err != nil || st != StateCompleted {
		t.Fatalf("state=%s err=%v", st, err)
	}
	y, _ := inst.GetVar("y")
	if y == nil || y.Text != "7" {
		t.Fatalf("y = %v", y)
	}
	z, _ := inst.GetVar("z")
	if z == nil || z.Text != "14" {
		t.Fatalf("z = %v", z)
	}
}

func TestAssignMissingSourceFaults(t *testing.T) {
	e := NewEngine(newRecordingInvoker())
	def, _ := NewDefinition("P",
		NewAssign("bad", Assignment{To: "x", From: xpath.MustCompile("//missing/thing")}), "x")
	e.Deploy(def)
	inst, _ := e.Start("P", nil)
	st, err := waitDone(t, inst)
	if st != StateFaulted || !errors.Is(err, ErrVariableNotFound) {
		t.Fatalf("state=%s err=%v", st, err)
	}
}

func TestDuplicateActivityNamesRejected(t *testing.T) {
	_, err := NewDefinition("P",
		NewSequence("main", NewNoOp("x"), NewNoOp("x")))
	if !errors.Is(err, ErrDuplicateActivity) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownDefinition(t *testing.T) {
	e := NewEngine(newRecordingInvoker())
	if _, err := e.Start("nope", nil); !errors.Is(err, ErrUnknownDefinition) {
		t.Fatalf("err = %v", err)
	}
}

func TestEngineInstanceLookup(t *testing.T) {
	e := NewEngine(newRecordingInvoker())
	def, _ := NewDefinition("P", NewNoOp("n"))
	e.Deploy(def)
	inst, _ := e.Start("P", nil)
	got, err := e.Instance(inst.ID())
	if err != nil || got != inst {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	if _, err := e.Instance("proc-999999"); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("err = %v", err)
	}
	waitDone(t, inst)
}

func TestTrackingEvents(t *testing.T) {
	bus := event.NewBus()
	var rec event.Recorder
	rec.Attach(bus)
	e := NewEngine(newRecordingInvoker(), WithEventBus(bus))
	def, _ := NewDefinition("P", NewSequence("main", NewNoOp("a"), NewNoOp("b")))
	e.Deploy(def)
	inst, _ := e.Start("P", nil)
	waitDone(t, inst)

	if n := len(rec.OfType(event.TypeProcessStarted)); n != 1 {
		t.Fatalf("process started events = %d", n)
	}
	if n := len(rec.OfType(event.TypeProcessCompleted)); n != 1 {
		t.Fatalf("process completed events = %d", n)
	}
	started := rec.OfType(event.TypeActivityStarted)
	if len(started) != 3 { // main, a, b
		t.Fatalf("activity started events = %d", len(started))
	}
	for _, ev := range started {
		if ev.ProcessInstanceID != inst.ID() {
			t.Fatalf("event missing instance correlation: %+v", ev)
		}
	}
}

type hookRecorder struct {
	NopRuntimeService
	mu       sync.Mutex
	created  []string
	finished []State
	acts     []string
}

func (h *hookRecorder) InstanceCreated(inst *Instance) {
	h.mu.Lock()
	h.created = append(h.created, inst.ID())
	h.mu.Unlock()
}

func (h *hookRecorder) InstanceFinished(_ *Instance, s State, _ error) {
	h.mu.Lock()
	h.finished = append(h.finished, s)
	h.mu.Unlock()
}

func (h *hookRecorder) ActivityStarted(_ *Instance, a Activity) {
	h.mu.Lock()
	h.acts = append(h.acts, a.Name())
	h.mu.Unlock()
}

func TestRuntimeServiceHooks(t *testing.T) {
	e := NewEngine(newRecordingInvoker())
	h := &hookRecorder{}
	e.AddRuntimeService(h)
	def, _ := NewDefinition("P", NewNoOp("n"))
	e.Deploy(def)
	inst, _ := e.Start("P", nil)
	waitDone(t, inst)

	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.created) != 1 || h.created[0] != inst.ID() {
		t.Fatalf("created hooks = %v", h.created)
	}
	if len(h.finished) != 1 || h.finished[0] != StateCompleted {
		t.Fatalf("finished hooks = %v", h.finished)
	}
	if len(h.acts) != 1 || h.acts[0] != "n" {
		t.Fatalf("activity hooks = %v", h.acts)
	}
}

func TestResolverForServiceType(t *testing.T) {
	ri := newRecordingInvoker()
	e := NewEngine(ri, WithResolver(ResolverFunc(func(st string) (string, error) {
		if st == "CurrencyConversion" {
			return "inproc://cc-2", nil
		}
		return "", errors.New("unknown type")
	})))
	def, _ := NewDefinition("P",
		NewInvoke("conv", InvokeSpec{ServiceType: "CurrencyConversion", Operation: "convert"}))
	e.Deploy(def)
	inst, _ := e.Start("P", nil)
	st, err := waitDone(t, inst)
	if err != nil || st != StateCompleted {
		t.Fatalf("state=%s err=%v", st, err)
	}
	if calls := ri.callList(); len(calls) != 1 || calls[0] != "inproc://cc-2 convert" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestResolverFailureFaults(t *testing.T) {
	e := NewEngine(newRecordingInvoker(), WithResolver(ResolverFunc(func(string) (string, error) {
		return "", errors.New("directory down")
	})))
	def, _ := NewDefinition("P", NewInvoke("i", InvokeSpec{ServiceType: "X", Operation: "op"}))
	e.Deploy(def)
	inst, _ := e.Start("P", nil)
	st, err := waitDone(t, inst)
	if st != StateFaulted || err == nil {
		t.Fatalf("state=%s err=%v", st, err)
	}
}

func TestInvokeInlineInput(t *testing.T) {
	ri := newRecordingInvoker()
	var gotPayload string
	ri.respond["op"] = func(req *soap.Envelope) (*soap.Envelope, error) {
		gotPayload = req.Payload.ChildText("", "k")
		return soap.NewRequest(xmltree.New("", "opResponse")), nil
	}
	e := NewEngine(ri)
	def, _ := NewDefinition("P",
		NewInvoke("i", InvokeSpec{Endpoint: "x", Operation: "op",
			InputLiteral: el(t, `<op><k>inline</k></op>`)}))
	e.Deploy(def)
	inst, _ := e.Start("P", nil)
	waitDone(t, inst)
	if gotPayload != "inline" {
		t.Fatalf("payload = %q", gotPayload)
	}
}

func TestInvokeMissingInputVarFaults(t *testing.T) {
	e := NewEngine(newRecordingInvoker())
	def, _ := NewDefinition("P",
		NewInvoke("i", InvokeSpec{Endpoint: "x", Operation: "op", InputVar: "ghost"}))
	e.Deploy(def)
	inst, _ := e.Start("P", nil)
	st, err := waitDone(t, inst)
	if st != StateFaulted || !errors.Is(err, ErrVariableNotFound) {
		t.Fatalf("state=%s err=%v", st, err)
	}
}

func TestDelayUsesEngineClock(t *testing.T) {
	ri := newRecordingInvoker()
	e := NewEngine(ri)
	def, _ := NewDefinition("P", NewDelay("d", time.Millisecond))
	e.Deploy(def)
	inst, _ := e.Start("P", nil)
	st, err := waitDone(t, inst)
	if err != nil || st != StateCompleted {
		t.Fatalf("state=%s err=%v", st, err)
	}
}

func TestVarsDocShape(t *testing.T) {
	e := NewEngine(newRecordingInvoker())
	def, _ := NewDefinition("P", NewNoOp("n"), "order")
	e.Deploy(def)
	inst, _ := e.CreateInstance("P", map[string]*xmltree.Element{
		"order": el(t, `<placeOrder><Amount>5</Amount></placeOrder>`),
	})
	doc := inst.VarsDoc()
	got, err := xpath.MustCompile("//order/placeOrder/Amount").EvalContext(doc, xpath.Context{})
	if err != nil || got.String() != "5" {
		t.Fatalf("vars doc path = %v err=%v", got, err)
	}
	inst.Terminate()
}

func TestGetVarReturnsCopy(t *testing.T) {
	e := NewEngine(newRecordingInvoker())
	def, _ := NewDefinition("P", NewNoOp("n"), "v")
	e.Deploy(def)
	inst, _ := e.CreateInstance("P", map[string]*xmltree.Element{"v": el(t, `<a><b>1</b></a>`)})
	got, _ := inst.GetVar("v")
	got.Child("", "b").Text = "mutated"
	again, _ := inst.GetVar("v")
	if again.ChildText("", "b") != "1" {
		t.Fatal("GetVar exposed internal state")
	}
	inst.Terminate()
}

func TestDoubleRunRejected(t *testing.T) {
	e := NewEngine(newRecordingInvoker())
	def, _ := NewDefinition("P", NewNoOp("n"))
	e.Deploy(def)
	inst, _ := e.CreateInstance("P", nil)
	if err := inst.Run(); err != nil {
		t.Fatal(err)
	}
	if err := inst.Run(); !errors.Is(err, ErrBadState) {
		t.Fatalf("second Run err = %v", err)
	}
	waitDone(t, inst)
}

func TestSuspendResumeTerminalRejected(t *testing.T) {
	e := NewEngine(newRecordingInvoker())
	def, _ := NewDefinition("P", NewNoOp("n"))
	e.Deploy(def)
	inst, _ := e.Start("P", nil)
	waitDone(t, inst)
	if err := inst.Suspend(); !errors.Is(err, ErrBadState) {
		t.Fatalf("suspend completed err = %v", err)
	}
	if err := inst.Resume(); !errors.Is(err, ErrBadState) {
		t.Fatalf("resume completed err = %v", err)
	}
}
