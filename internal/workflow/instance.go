package workflow

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/masc-project/masc/internal/event"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/xmltree"
	"github.com/masc-project/masc/internal/xpath"
)

// State is an instance's lifecycle state.
type State int

// Instance states.
const (
	StateCreated State = iota + 1
	StateRunning
	StateSuspended
	StateCompleted
	StateFaulted
	StateTerminated
)

// String renders the state.
func (s State) String() string {
	switch s {
	case StateCreated:
		return "created"
	case StateRunning:
		return "running"
	case StateSuspended:
		return "suspended"
	case StateCompleted:
		return "completed"
	case StateFaulted:
		return "faulted"
	case StateTerminated:
		return "terminated"
	default:
		return "unknown"
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateCompleted || s == StateFaulted || s == StateTerminated
}

type controlState int

const (
	controlRun controlState = iota + 1
	controlSuspend
	controlTerminate
)

// TimeoutError reports that an invoke activity's service did not
// respond within the timeout interval. It unwraps to
// transport.ErrTimeout so fault classification treats it uniformly.
type TimeoutError struct {
	Activity string
	Endpoint string
	Interval time.Duration
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("workflow: invoke %q: %s did not respond within %v", e.Activity, e.Endpoint, e.Interval)
}

// Unwrap supports errors.Is(err, transport.ErrTimeout).
func (e *TimeoutError) Unwrap() error { return transport.ErrTimeout }

// InvokeFaultError reports a SOAP fault returned to an invoke activity.
type InvokeFaultError struct {
	Activity string
	Endpoint string
	Fault    *soap.Fault
}

// Error implements error.
func (e *InvokeFaultError) Error() string {
	return fmt.Sprintf("workflow: invoke %q on %s: %v", e.Activity, e.Endpoint, e.Fault)
}

// Unwrap exposes the fault.
func (e *InvokeFaultError) Unwrap() error { return e.Fault }

// Instance is one running (or finished) execution of a process
// definition. All methods are safe for concurrent use; the adaptation
// services call them from monitoring goroutines while the instance
// executes.
type Instance struct {
	id      string
	defName string
	engine  *Engine

	mu      sync.Mutex
	cond    *sync.Cond
	state   State
	control controlState
	root    Activity
	vars    map[string]*xmltree.Element
	done    map[string]bool
	// adaptState is the MASC adaptation state consulted by policies'
	// StateBefore/StateAfter (paper §2: "a state in which the adapted
	// system should be before the adaptation").
	adaptState string
	finalErr   error

	// Dirty set for delta checkpointing (guarded by mu): what changed
	// since the persistence service's last captureCheckpoint. ckptFull
	// forces the next capture to anchor a full snapshot — set at birth
	// and after structural tree edits, which deltas do not describe.
	ckptFull  bool
	ckptVars  map[string]struct{}
	ckptMarks []markChange
	ckptSeq   uint64

	runCtx    context.Context
	cancelRun context.CancelFunc
	termCh    chan struct{}
	termOnce  sync.Once
	doneCh    chan struct{}
	started   bool

	// span is the trace root covering this instance's execution (nil
	// when telemetry is unwired); created holds the engine-clock
	// creation time for the process-duration metric.
	span    *telemetry.Span
	created time.Time
}

func newInstance(e *Engine, id string, def *Definition, inputs map[string]*xmltree.Element) *Instance {
	tctx, span := e.tel.Traces().StartTrace(context.Background(), "process "+def.Name())
	span.SetAttr("definition", def.Name())
	span.SetAttr("instance", id)
	e.tel.Traces().BindInstance(id, span)
	ctx, cancel := context.WithCancel(tctx)
	in := &Instance{
		id:        id,
		defName:   def.Name(),
		engine:    e,
		state:     StateCreated,
		control:   controlRun,
		root:      def.Root().Clone(),
		vars:      make(map[string]*xmltree.Element),
		done:      make(map[string]bool),
		runCtx:    ctx,
		cancelRun: cancel,
		termCh:    make(chan struct{}),
		doneCh:    make(chan struct{}),
		ckptFull:  true,
		span:      span,
		created:   e.clk.Now(),
	}
	in.cond = sync.NewCond(&in.mu)
	for _, v := range def.Variables() {
		in.vars[v] = nil
	}
	for name, val := range inputs {
		if val != nil {
			in.vars[name] = val.Copy()
		}
	}
	return in
}

// ID returns the instance ID (the ProcessInstanceID stamped onto
// outgoing SOAP messages).
func (in *Instance) ID() string { return in.id }

// Definition returns the name of the definition this instance runs.
func (in *Instance) Definition() string { return in.defName }

// State returns the current lifecycle state.
func (in *Instance) State() State {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.state
}

// AdaptationState returns the MASC adaptation state label.
func (in *Instance) AdaptationState() string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.adaptState
}

// SetAdaptationState records the adaptation state label (policies'
// StateAfter).
func (in *Instance) SetAdaptationState(s string) {
	in.mu.Lock()
	in.adaptState = s
	in.mu.Unlock()
}

// Run begins executing a created instance.
func (in *Instance) Run() error {
	in.mu.Lock()
	if in.started {
		in.mu.Unlock()
		return fmt.Errorf("%w: instance %s already started", ErrBadState, in.id)
	}
	in.started = true
	if in.control == controlRun {
		in.state = StateRunning
	}
	in.mu.Unlock()

	go func() {
		err := in.runActivity(&execCtx{inst: in, span: in.span}, in.rootActivity())
		in.finish(err)
	}()
	return nil
}

func (in *Instance) rootActivity() Activity {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.root
}

func (in *Instance) finish(err error) {
	in.mu.Lock()
	switch {
	case errors.Is(err, ErrTerminated):
		in.state = StateTerminated
	case err != nil:
		in.state = StateFaulted
		in.finalErr = err
	default:
		in.state = StateCompleted
	}
	final := in.state
	in.cond.Broadcast()
	in.mu.Unlock()

	in.cancelRun()
	eng := in.engine
	eng.met.instances.With(in.defName, final.String()).Inc()
	eng.met.processSeconds.With(in.defName).Observe(eng.clk.Since(in.created).Seconds())
	in.span.SetAttr("state", final.String())
	in.span.EndErr(err)
	lg := eng.log.Span(in.span).Conversation(in.id)
	if final == StateCompleted {
		lg.Info("instance "+in.id+" completed", "definition", in.defName, "state", final.String())
	} else {
		detail := ""
		if err != nil {
			detail = err.Error()
		}
		lg.Warn("instance "+in.id+" finished "+final.String(),
			"definition", in.defName, "state", final.String(), "error", detail)
	}
	eng.tel.Traces().UnbindInstance(in.id)
	for _, svc := range in.engine.snapshotServices() {
		svc.InstanceFinished(in, final, err)
	}
	in.engine.publish(event.Event{
		Type:              event.TypeProcessCompleted,
		Time:              in.engine.clk.Now(),
		Source:            "workflow",
		Service:           in.defName,
		ProcessInstanceID: in.id,
		Detail:            final.String(),
	})
	// Done closes last: waiters observe a fully finished instance,
	// including delivered completion hooks and events.
	close(in.doneCh)
}

// Done returns a channel closed when the instance reaches a terminal
// state.
func (in *Instance) Done() <-chan struct{} { return in.doneCh }

// Wait blocks until the instance finishes or the timeout elapses (on
// the wall clock); it returns the final state and execution error.
func (in *Instance) Wait(timeout time.Duration) (State, error) {
	select {
	case <-in.doneCh:
	case <-time.After(timeout):
		return in.State(), fmt.Errorf("%w: instance %s still %s after %v",
			ErrBadState, in.id, in.State(), timeout)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.state, in.finalErr
}

// Err returns the execution error for faulted instances.
func (in *Instance) Err() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.finalErr
}

// Suspend requests suspension; the instance parks at the next activity
// boundary ("MASCAdaptationService suspends the running process
// instance to be adapted", §2.1). Safe on created instances (they
// start suspended).
func (in *Instance) Suspend() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.state.Terminal() {
		return fmt.Errorf("%w: cannot suspend %s instance %s", ErrBadState, in.state, in.id)
	}
	in.control = controlSuspend
	in.cond.Broadcast()
	return nil
}

// Resume releases a suspension request.
func (in *Instance) Resume() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.state.Terminal() {
		return fmt.Errorf("%w: cannot resume %s instance %s", ErrBadState, in.state, in.id)
	}
	in.control = controlRun
	if in.state == StateSuspended {
		in.state = StateRunning
	}
	in.cond.Broadcast()
	return nil
}

// Terminate aborts the instance: in-flight invokes are cancelled and
// the instance finishes with StateTerminated.
func (in *Instance) Terminate() {
	in.mu.Lock()
	alreadyTerminal := in.state.Terminal()
	in.control = controlTerminate
	in.cond.Broadcast()
	started := in.started
	in.mu.Unlock()
	if alreadyTerminal {
		return
	}
	in.termOnce.Do(func() { close(in.termCh) })
	in.cancelRun()
	if !started {
		// Never ran: finish synchronously so waiters unblock.
		in.mu.Lock()
		in.started = true
		in.mu.Unlock()
		in.finish(ErrTerminated)
	}
}

// terminated exposes the termination signal to long-running activities.
func (in *Instance) terminated() <-chan struct{} { return in.termCh }

// AwaitState polls (wall clock) until the instance reaches the given
// state or the timeout elapses; reports success. Useful to confirm a
// Suspend has parked the instance before editing its tree.
func (in *Instance) AwaitState(s State, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if in.State() == s {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// --- checkpointed activity execution ---

// gate blocks while suspension is requested and aborts on termination.
func (in *Instance) gate() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	for {
		switch in.control {
		case controlTerminate:
			return ErrTerminated
		case controlSuspend:
			in.state = StateSuspended
			in.cond.Broadcast()
			in.cond.Wait()
		default:
			if !in.state.Terminal() {
				in.state = StateRunning
			}
			return nil
		}
	}
}

// runActivity is the per-activity checkpoint: it gates on control
// state, skips completed activities, emits tracking, executes, and
// marks completion.
func (in *Instance) runActivity(ec *execCtx, a Activity) error {
	if err := in.gate(); err != nil {
		return err
	}
	if in.isDone(a.Name()) {
		return nil
	}

	services := in.engine.snapshotServices()
	for _, svc := range services {
		svc.ActivityStarted(in, a)
	}
	in.engine.publish(event.Event{
		Type:              event.TypeActivityStarted,
		Time:              in.engine.clk.Now(),
		Source:            "workflow",
		Service:           in.defName,
		Operation:         a.Name(),
		ProcessInstanceID: in.id,
		Detail:            a.Kind(),
	})

	span := ec.span.StartChild("activity " + a.Name())
	span.SetAttr("kind", a.Kind())
	clk := in.engine.clk
	start := clk.Now()
	err := a.run(&execCtx{inst: in, span: span})
	in.engine.met.activitySeconds.With(in.defName, a.Kind()).Observe(clk.Since(start).Seconds())
	outcome := "ok"
	if err != nil {
		outcome = "fault"
	}
	in.engine.met.activities.With(in.defName, a.Kind(), outcome).Inc()
	span.EndErr(err)
	if err == nil {
		in.markDone(a.Name())
	}

	for _, svc := range services {
		svc.ActivityCompleted(in, a, err)
	}
	ev := event.Event{
		Type:              event.TypeActivityCompleted,
		Time:              in.engine.clk.Now(),
		Source:            "workflow",
		Service:           in.defName,
		Operation:         a.Name(),
		ProcessInstanceID: in.id,
		Detail:            a.Kind(),
	}
	if err != nil {
		ev.Detail = err.Error()
	}
	in.engine.publish(ev)
	return err
}

func (in *Instance) isDone(name string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.done[name]
}

func (in *Instance) markDone(name string) {
	in.mu.Lock()
	in.done[name] = true
	in.dirtyMarkLocked(name, true)
	in.mu.Unlock()
}

// clearDoneSubtree forgets completion marks below (and including) a
// while-loop body so it can re-execute next iteration.
func (in *Instance) clearDoneSubtree(a Activity) {
	in.mu.Lock()
	defer in.mu.Unlock()
	walkActivities(a, func(x Activity) {
		if _, ok := in.done[x.Name()]; ok {
			delete(in.done, x.Name())
			in.dirtyMarkLocked(x.Name(), false)
		}
	})
}

// withTree runs fn with the tree lock held; containers use it to
// re-scan children so concurrent dynamic updates are safe. fn must not
// call other locking Instance methods.
func (in *Instance) withTree(fn func()) {
	in.mu.Lock()
	defer in.mu.Unlock()
	fn()
}

// firstPendingChild returns the sequence's first not-yet-completed
// child under the tree lock, or nil when the sequence is exhausted.
func (in *Instance) firstPendingChild(s *Sequence) Activity {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, c := range s.children {
		if !in.done[c.Name()] {
			return c
		}
	}
	return nil
}

// --- variables ---

// GetVar returns a copy of the variable's value.
func (in *Instance) GetVar(name string) (*xmltree.Element, bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	v, ok := in.vars[name]
	if !ok || v == nil {
		return nil, false
	}
	return v.Copy(), true
}

// SetVar stores a copy of val into the variable.
func (in *Instance) SetVar(name string, val *xmltree.Element) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.dirtyVarLocked(name)
	if val == nil {
		in.vars[name] = nil
		return
	}
	in.vars[name] = val.Copy()
}

// VarsDoc builds the synthetic variables document conditions evaluate
// against: <vars><varName>value…</varName>…</vars>.
func (in *Instance) VarsDoc() *xmltree.Element {
	in.mu.Lock()
	defer in.mu.Unlock()
	root := xmltree.New("", "vars")
	names := make([]string, 0, len(in.vars))
	for k, v := range in.vars {
		if v != nil {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		wrap := xmltree.New("", name)
		wrap.Append(in.vars[name].Copy())
		root.Append(wrap)
	}
	return root
}

func (in *Instance) evalBool(c *xpath.Compiled) (bool, error) {
	if c == nil {
		return true, nil
	}
	return c.EvalBool(in.VarsDoc(), xpath.Context{})
}

func (in *Instance) applyAssignment(as Assignment) error {
	if as.To == "" {
		return errors.New("assignment has no target variable")
	}
	if as.Literal != nil {
		in.SetVar(as.To, as.Literal)
		return nil
	}
	if as.From == nil {
		return fmt.Errorf("assignment to %q has neither source expression nor literal", as.To)
	}
	v, err := as.From.EvalContext(in.VarsDoc(), xpath.Context{})
	if err != nil {
		return err
	}
	if ns, ok := v.(xpath.NodeSet); ok {
		if len(ns) == 0 {
			return fmt.Errorf("%w: expression %q selected nothing", ErrVariableNotFound, as.From.Source())
		}
		if !ns[0].IsAttr() {
			in.SetVar(as.To, ns[0].El)
			return nil
		}
	}
	in.SetVar(as.To, xmltree.NewText("", "value", v.String()))
	return nil
}

// --- invoke execution ---

type invokeResult struct {
	resp *soap.Envelope
	err  error
}

func (in *Instance) runInvoke(ec *execCtx, a *Invoke) error {
	payload, err := in.buildInvokePayload(a)
	if err != nil {
		return fmt.Errorf("invoke %q: %w", a.name, err)
	}
	env := soap.NewRequest(payload)

	endpoint := a.endpoint
	if endpoint == "" {
		if a.serviceType == "" {
			return fmt.Errorf("invoke %q: neither endpoint nor serviceType", a.name)
		}
		if in.engine.resolver == nil {
			return fmt.Errorf("invoke %q: serviceType %q needs a Resolver", a.name, a.serviceType)
		}
		endpoint, err = in.engine.resolver.Resolve(a.serviceType)
		if err != nil {
			return fmt.Errorf("invoke %q: resolve %q: %w", a.name, a.serviceType, err)
		}
	}

	soap.Addressing{
		MessageID: in.engine.msgIDs.Next(),
		To:        endpoint,
		Action:    a.operation,
	}.Apply(env)
	soap.SetProcessInstanceID(env, in.id)
	ec.span.SetAttr("endpoint", endpoint)
	ec.span.SetAttr("operation", a.operation)

	// The invocation context carries the activity span so messaging-
	// layer spans (VEP, attempts) nest under this invoke in the trace.
	cctx, cancel := context.WithCancel(telemetry.ContextWithSpan(in.runCtx, ec.span))
	defer cancel()
	resc := make(chan invokeResult, 1)
	go func() {
		resp, err := in.engine.invoker.Invoke(cctx, endpoint, env)
		resc <- invokeResult{resp: resp, err: err}
	}()

	clk := in.engine.clk
	start := clk.Now()
	for {
		// The timeout interval is re-read every wakeup so AdjustTimeout
		// actions affect this in-flight invocation.
		remaining := a.Timeout() - clk.Since(start)
		if remaining <= 0 {
			cancel()
			return &TimeoutError{Activity: a.name, Endpoint: endpoint, Interval: a.Timeout()}
		}
		select {
		case r := <-resc:
			return in.finishInvoke(a, endpoint, r)
		case <-clk.After(remaining):
			// Loop: either time out or honor a raised timeout.
		case <-in.terminated():
			cancel()
			return ErrTerminated
		}
	}
}

func (in *Instance) finishInvoke(a *Invoke, endpoint string, r invokeResult) error {
	if r.err != nil {
		return fmt.Errorf("invoke %q: %w", a.name, r.err)
	}
	if r.resp != nil && r.resp.IsFault() {
		return &InvokeFaultError{Activity: a.name, Endpoint: endpoint, Fault: r.resp.Fault}
	}
	if a.outputVar != "" {
		if r.resp == nil || r.resp.Payload == nil {
			return fmt.Errorf("invoke %q: empty response but output variable %q expected", a.name, a.outputVar)
		}
		in.SetVar(a.outputVar, r.resp.Payload)
	}
	return nil
}

func (in *Instance) buildInvokePayload(a *Invoke) (*xmltree.Element, error) {
	switch {
	case a.inputVar != "":
		v, ok := in.GetVar(a.inputVar)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrVariableNotFound, a.inputVar)
		}
		return v, nil
	case a.inputLit != nil:
		return a.inputLit.Copy(), nil
	default:
		// Parameterless operation: send <operation/>.
		return xmltree.New("", a.operation), nil
	}
}
