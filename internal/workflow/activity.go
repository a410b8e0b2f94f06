// Package workflow is MASC's process-orchestration engine — the
// substitute for Microsoft Windows Workflow Foundation (WF) that the
// paper's MASCAdaptationService extends (§2.1). It provides:
//
//   - an activity-tree process model (sequence, parallel, if, while,
//     invoke, assign, delay, scope with fault handler, terminate);
//   - XML process definitions (parse.go), the XAML/.xoml analog;
//   - a runtime engine managing instance execution with tracking
//     events, runtime-service hooks (the WF extensibility point MASC
//     plugs into), suspend/resume/terminate;
//   - dynamic instance update primitives (edit.go): obtain a transient
//     copy of a running instance's activity tree, edit it, and apply it
//     back — exactly the WF mechanism the paper's dynamic customization
//     relies on.
//
// Process variables hold XML fragments; conditions and assignments are
// XPath expressions evaluated over a synthetic variables document in
// which each variable appears as a child of the root named after the
// variable (so a variable "order" holding <placeOrder><Amount>5</...>
// is addressed as //order/placeOrder/Amount).
package workflow

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/masc-project/masc/internal/telemetry"
	"github.com/masc-project/masc/internal/xmltree"
	"github.com/masc-project/masc/internal/xpath"
)

// Errors reported by activity execution.
var (
	// ErrTerminated signals that a Terminate activity ended the
	// instance; the engine maps it to StateTerminated, not a fault.
	ErrTerminated = errors.New("workflow: process terminated by activity")
	// ErrVariableNotFound reports access to an undeclared or unset
	// variable.
	ErrVariableNotFound = errors.New("workflow: variable not found")
	// ErrDuplicateActivity reports two activities sharing a name.
	ErrDuplicateActivity = errors.New("workflow: duplicate activity name")
)

// Activity is a node in a process tree. Activities are identified by
// unique names within a definition; names are how policies reference
// anchors for dynamic customization.
type Activity interface {
	// Name returns the activity's unique name.
	Name() string
	// Kind returns the activity's element kind (e.g. "sequence").
	Kind() string
	// Clone deep-copies the activity subtree.
	Clone() Activity

	// run executes the activity. Containers recurse through
	// inst.runActivity so every child passes the engine's checkpoint
	// gate (suspension, termination, tracking, done-marking).
	run(ec *execCtx) error
}

// execCtx carries per-run state into activity execution: the owning
// instance plus the trace span covering the current activity (nil when
// telemetry is unwired). runActivity derives a child execCtx per
// activity, so containers recursing through it nest spans naturally.
type execCtx struct {
	inst *Instance
	span *telemetry.Span
}

// --- Sequence ---

// Sequence executes children in order.
type Sequence struct {
	name     string
	children []Activity
}

var _ Activity = (*Sequence)(nil)

// NewSequence builds a sequence activity.
func NewSequence(name string, children ...Activity) *Sequence {
	return &Sequence{name: name, children: children}
}

// Name implements Activity.
func (s *Sequence) Name() string { return s.name }

// Kind implements Activity.
func (s *Sequence) Kind() string { return "sequence" }

// Children returns the child activities (read-only view).
func (s *Sequence) Children() []Activity {
	out := make([]Activity, len(s.children))
	copy(out, s.children)
	return out
}

// Clone implements Activity.
func (s *Sequence) Clone() Activity {
	cp := &Sequence{name: s.name, children: make([]Activity, len(s.children))}
	for i, c := range s.children {
		cp.children[i] = c.Clone()
	}
	return cp
}

func (s *Sequence) run(ec *execCtx) error {
	// Children are re-scanned on every step: the first not-yet-done
	// child runs next. Dynamic updates performed while the instance is
	// suspended therefore take effect mid-sequence, and an activity
	// inserted before the current position still executes (late).
	for {
		next := ec.inst.firstPendingChild(s)
		if next == nil {
			return nil
		}
		if err := ec.inst.runActivity(ec, next); err != nil {
			return err
		}
	}
}

// --- Parallel ---

// Parallel executes branches concurrently and waits for all of them;
// the first branch error (in completion order) is returned after every
// branch has finished. Branches are not cancelled by a sibling's fault
// — wrap the parallel in a Scope to handle the fault once all branches
// settle.
type Parallel struct {
	name     string
	branches []Activity
}

var _ Activity = (*Parallel)(nil)

// NewParallel builds a parallel activity.
func NewParallel(name string, branches ...Activity) *Parallel {
	return &Parallel{name: name, branches: branches}
}

// Name implements Activity.
func (p *Parallel) Name() string { return p.name }

// Kind implements Activity.
func (p *Parallel) Kind() string { return "parallel" }

// Clone implements Activity.
func (p *Parallel) Clone() Activity {
	cp := &Parallel{name: p.name, branches: make([]Activity, len(p.branches))}
	for i, b := range p.branches {
		cp.branches[i] = b.Clone()
	}
	return cp
}

func (p *Parallel) run(ec *execCtx) error {
	var branches []Activity
	ec.inst.withTree(func() {
		branches = make([]Activity, len(p.branches))
		copy(branches, p.branches)
	})

	errc := make(chan error, len(branches))
	for _, b := range branches {
		go func(b Activity) {
			errc <- ec.inst.runActivity(ec, b)
		}(b)
	}
	var first error
	for range branches {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// --- If ---

// If evaluates an XPath condition over the variables document and runs
// the then- or else-branch.
type If struct {
	name string
	cond *xpath.Compiled
	then Activity
	els  Activity // may be nil
}

var _ Activity = (*If)(nil)

// NewIf builds a conditional activity; els may be nil.
func NewIf(name string, cond *xpath.Compiled, then, els Activity) *If {
	return &If{name: name, cond: cond, then: then, els: els}
}

// Name implements Activity.
func (i *If) Name() string { return i.name }

// Kind implements Activity.
func (i *If) Kind() string { return "if" }

// Clone implements Activity.
func (i *If) Clone() Activity {
	cp := &If{name: i.name, cond: i.cond}
	if i.then != nil {
		cp.then = i.then.Clone()
	}
	if i.els != nil {
		cp.els = i.els.Clone()
	}
	return cp
}

func (i *If) run(ec *execCtx) error {
	ok, err := ec.inst.evalBool(i.cond)
	if err != nil {
		return fmt.Errorf("if %q: %w", i.name, err)
	}
	switch {
	case ok && i.then != nil:
		return ec.inst.runActivity(ec, i.then)
	case !ok && i.els != nil:
		return ec.inst.runActivity(ec, i.els)
	default:
		return nil
	}
}

// --- While ---

// While repeats its body while the condition holds. Completion marks of
// the body's subtree are cleared between iterations so the body can
// re-execute.
type While struct {
	name string
	cond *xpath.Compiled
	body Activity
	// maxIterations guards against runaway loops; 0 means no bound.
	maxIterations int
}

var _ Activity = (*While)(nil)

// NewWhile builds a loop activity.
func NewWhile(name string, cond *xpath.Compiled, body Activity) *While {
	return &While{name: name, cond: cond, body: body, maxIterations: 10000}
}

// Name implements Activity.
func (w *While) Name() string { return w.name }

// Kind implements Activity.
func (w *While) Kind() string { return "while" }

// Clone implements Activity.
func (w *While) Clone() Activity {
	return &While{name: w.name, cond: w.cond, body: w.body.Clone(), maxIterations: w.maxIterations}
}

func (w *While) run(ec *execCtx) error {
	for iter := 0; ; iter++ {
		if w.maxIterations > 0 && iter >= w.maxIterations {
			return fmt.Errorf("while %q: exceeded %d iterations", w.name, w.maxIterations)
		}
		ok, err := ec.inst.evalBool(w.cond)
		if err != nil {
			return fmt.Errorf("while %q: %w", w.name, err)
		}
		if !ok {
			return nil
		}
		if err := ec.inst.runActivity(ec, w.body); err != nil {
			return err
		}
		ec.inst.clearDoneSubtree(w.body)
	}
}

// --- Assign ---

// Assignment is one variable update within an Assign activity.
type Assignment struct {
	// To is the target variable name.
	To string
	// From, when set, is an XPath over the variables document; its
	// result is stored into To (first node of a node-set is copied;
	// scalars are wrapped as <value>text</value>).
	From *xpath.Compiled
	// Literal, when set, is a literal XML value stored into To.
	Literal *xmltree.Element
}

// Assign performs a list of variable assignments.
type Assign struct {
	name        string
	assignments []Assignment
}

var _ Activity = (*Assign)(nil)

// NewAssign builds an assignment activity.
func NewAssign(name string, assignments ...Assignment) *Assign {
	return &Assign{name: name, assignments: assignments}
}

// Name implements Activity.
func (a *Assign) Name() string { return a.name }

// Kind implements Activity.
func (a *Assign) Kind() string { return "assign" }

// Clone implements Activity.
func (a *Assign) Clone() Activity {
	cp := &Assign{name: a.name, assignments: make([]Assignment, len(a.assignments))}
	copy(cp.assignments, a.assignments)
	for i := range cp.assignments {
		if cp.assignments[i].Literal != nil {
			cp.assignments[i].Literal = cp.assignments[i].Literal.Copy()
		}
	}
	return cp
}

func (a *Assign) run(ec *execCtx) error {
	for _, as := range a.assignments {
		if err := ec.inst.applyAssignment(as); err != nil {
			return fmt.Errorf("assign %q: %w", a.name, err)
		}
	}
	return nil
}

// --- Delay ---

// Delay pauses the instance for a fixed duration on the engine clock.
type Delay struct {
	name     string
	duration time.Duration
}

var _ Activity = (*Delay)(nil)

// NewDelay builds a delay activity.
func NewDelay(name string, d time.Duration) *Delay {
	return &Delay{name: name, duration: d}
}

// Name implements Activity.
func (d *Delay) Name() string { return d.name }

// Kind implements Activity.
func (d *Delay) Kind() string { return "delay" }

// Clone implements Activity.
func (d *Delay) Clone() Activity { return &Delay{name: d.name, duration: d.duration} }

func (d *Delay) run(ec *execCtx) error {
	select {
	case <-ec.inst.engine.clk.After(d.duration):
		return nil
	case <-ec.inst.terminated():
		return ErrTerminated
	}
}

// --- Scope ---

// Scope runs a body; if the body faults, the fault handler (catch)
// runs and the fault is considered handled (unless the handler itself
// faults). The fault message is exposed to the handler in the variable
// named by FaultVariable.
type Scope struct {
	name string
	body Activity
	// catch is the fault handler; nil re-raises.
	catch Activity
	// faultVariable names the variable receiving fault details;
	// defaults to "fault".
	faultVariable string
}

var _ Activity = (*Scope)(nil)

// NewScope builds a scope with an optional fault handler.
func NewScope(name string, body, catch Activity) *Scope {
	return &Scope{name: name, body: body, catch: catch, faultVariable: "fault"}
}

// Name implements Activity.
func (s *Scope) Name() string { return s.name }

// Kind implements Activity.
func (s *Scope) Kind() string { return "scope" }

// Clone implements Activity.
func (s *Scope) Clone() Activity {
	cp := &Scope{name: s.name, faultVariable: s.faultVariable}
	if s.body != nil {
		cp.body = s.body.Clone()
	}
	if s.catch != nil {
		cp.catch = s.catch.Clone()
	}
	return cp
}

func (s *Scope) run(ec *execCtx) error {
	err := ec.inst.runActivity(ec, s.body)
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrTerminated) || s.catch == nil {
		return err
	}
	fv := xmltree.New("", s.faultVariable)
	fv.Append(xmltree.NewText("", "message", err.Error()))
	ec.inst.SetVar(s.faultVariable, fv)
	return ec.inst.runActivity(ec, s.catch)
}

// --- Terminate ---

// Terminate ends the instance immediately with StateTerminated.
type Terminate struct {
	name string
}

var _ Activity = (*Terminate)(nil)

// NewTerminate builds a terminate activity.
func NewTerminate(name string) *Terminate { return &Terminate{name: name} }

// Name implements Activity.
func (t *Terminate) Name() string { return t.name }

// Kind implements Activity.
func (t *Terminate) Kind() string { return "terminate" }

// Clone implements Activity.
func (t *Terminate) Clone() Activity { return &Terminate{name: t.name} }

func (t *Terminate) run(*execCtx) error { return ErrTerminated }

// --- NoOp ---

// NoOp does nothing; useful as a placeholder anchor for insertions.
type NoOp struct {
	name string
}

var _ Activity = (*NoOp)(nil)

// NewNoOp builds a no-op activity.
func NewNoOp(name string) *NoOp { return &NoOp{name: name} }

// Name implements Activity.
func (n *NoOp) Name() string { return n.name }

// Kind implements Activity.
func (n *NoOp) Kind() string { return "noop" }

// Clone implements Activity.
func (n *NoOp) Clone() Activity { return &NoOp{name: n.name} }

func (n *NoOp) run(*execCtx) error { return nil }

// --- Invoke ---

// Invoke calls a service operation through the engine's invoker
// (typically a wsBus client or VEP). The request payload is a copy of
// the input variable's value (or an inline literal); the response
// payload is stored into the output variable. The activity stamps the
// instance ID onto the outgoing message for cross-layer correlation.
type Invoke struct {
	name string
	// endpoint is the target address; empty when serviceType is used.
	endpoint string
	// serviceType resolves dynamically through the engine's Resolver —
	// the "set of criteria for dynamically selecting the best Web
	// service from a directory" (§2).
	serviceType string
	operation   string
	inputVar    string
	inputLit    *xmltree.Element
	outputVar   string
	// timeoutNS is the live-adjustable timeout in nanoseconds; the
	// AdjustTimeout adaptation action raises it while an invocation is
	// in flight (cross-layer coordination, §3.1(3)).
	timeoutNS atomic.Int64
}

var _ Activity = (*Invoke)(nil)

// InvokeSpec configures NewInvoke.
type InvokeSpec struct {
	// Endpoint is the target address (mutually exclusive with
	// ServiceType; Endpoint wins if both set).
	Endpoint string
	// ServiceType selects a service dynamically via the Resolver.
	ServiceType string
	// Operation is the operation name (used as WS-Addressing Action).
	Operation string
	// InputVar names the variable whose value becomes the request
	// payload.
	InputVar string
	// InputLiteral is an inline request payload (used when InputVar is
	// empty).
	InputLiteral *xmltree.Element
	// OutputVar names the variable receiving the response payload;
	// empty discards the response.
	OutputVar string
	// Timeout bounds the invocation; 0 means DefaultInvokeTimeout.
	Timeout time.Duration
}

// DefaultInvokeTimeout applies when an invoke declares no timeout.
const DefaultInvokeTimeout = 30 * time.Second

// NewInvoke builds an invoke activity.
func NewInvoke(name string, spec InvokeSpec) *Invoke {
	inv := &Invoke{
		name:        name,
		endpoint:    spec.Endpoint,
		serviceType: spec.ServiceType,
		operation:   spec.Operation,
		inputVar:    spec.InputVar,
		outputVar:   spec.OutputVar,
	}
	if spec.InputLiteral != nil {
		inv.inputLit = spec.InputLiteral.Copy()
	}
	t := spec.Timeout
	if t <= 0 {
		t = DefaultInvokeTimeout
	}
	inv.timeoutNS.Store(int64(t))
	return inv
}

// Name implements Activity.
func (i *Invoke) Name() string { return i.name }

// Kind implements Activity.
func (i *Invoke) Kind() string { return "invoke" }

// Operation returns the invoked operation name.
func (i *Invoke) Operation() string { return i.operation }

// Endpoint returns the static endpoint address ("" if dynamic).
func (i *Invoke) Endpoint() string { return i.endpoint }

// Timeout returns the current timeout interval.
func (i *Invoke) Timeout() time.Duration { return time.Duration(i.timeoutNS.Load()) }

// SetTimeout changes the timeout interval; it affects in-flight
// invocations of this activity (their deadline is re-evaluated).
func (i *Invoke) SetTimeout(d time.Duration) { i.timeoutNS.Store(int64(d)) }

// Clone implements Activity.
func (i *Invoke) Clone() Activity {
	cp := &Invoke{
		name:        i.name,
		endpoint:    i.endpoint,
		serviceType: i.serviceType,
		operation:   i.operation,
		inputVar:    i.inputVar,
		outputVar:   i.outputVar,
	}
	if i.inputLit != nil {
		cp.inputLit = i.inputLit.Copy()
	}
	cp.timeoutNS.Store(i.timeoutNS.Load())
	return cp
}

func (i *Invoke) run(ec *execCtx) error {
	return ec.inst.runInvoke(ec, i)
}
