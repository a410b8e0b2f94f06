package bus

import (
	"fmt"
	"regexp"
	"sync"
	"time"

	"github.com/masc-project/masc/internal/ringbuf"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/wsdl"
	"github.com/masc-project/masc/internal/xmltree"
	"github.com/masc-project/masc/internal/xpath"
)

// MessageContext travels through the processing pipeline with a
// message as it crosses the bus.
type MessageContext struct {
	// VEP is the virtual endpoint handling the message.
	VEP string
	// Operation is the service operation.
	Operation string
	// Target is the concrete service address chosen (set for response
	// processing and late request stages).
	Target string
	// Request is the request envelope (mutable in request stages).
	Request *soap.Envelope
	// Response is the response envelope (mutable in response stages;
	// nil during request processing).
	Response *soap.Envelope
	// Meta carries free-form annotations between modules.
	Meta map[string]string
}

// Module is a Message Processing Module (§3.1(5)): "these handlers can
// be configured as a pipeline to manipulate and pre/post-process both
// request and response messages". ProcessRequest runs before the
// service invocation (in pipeline order), ProcessResponse after it (in
// reverse order). An error aborts the invocation.
type Module interface {
	// ModuleName identifies the module in diagnostics.
	ModuleName() string
	// ProcessRequest pre-processes the outgoing request.
	ProcessRequest(mc *MessageContext) error
	// ProcessResponse post-processes the incoming response.
	ProcessResponse(mc *MessageContext) error
}

// Pipeline is an ordered module chain.
type Pipeline struct {
	mu      sync.RWMutex
	modules []Module
}

// Append adds a module to the end of the pipeline.
func (p *Pipeline) Append(m Module) {
	p.mu.Lock()
	p.modules = append(p.modules, m)
	p.mu.Unlock()
}

// Modules returns a snapshot of the chain.
func (p *Pipeline) Modules() []Module {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]Module, len(p.modules))
	copy(out, p.modules)
	return out
}

// RunRequest applies every module's request stage in order.
func (p *Pipeline) RunRequest(mc *MessageContext) error {
	for _, m := range p.Modules() {
		if err := m.ProcessRequest(mc); err != nil {
			return fmt.Errorf("bus: module %s (request): %w", m.ModuleName(), err)
		}
	}
	return nil
}

// RunResponse applies every module's response stage in reverse order.
func (p *Pipeline) RunResponse(mc *MessageContext) error {
	mods := p.Modules()
	for i := len(mods) - 1; i >= 0; i-- {
		if err := mods[i].ProcessResponse(mc); err != nil {
			return fmt.Errorf("bus: module %s (response): %w", mods[i].ModuleName(), err)
		}
	}
	return nil
}

// --- Message Logger ---

// LogEntry is one logged message observation.
type LogEntry struct {
	Time       time.Time
	VEP        string
	Operation  string
	Target     string
	Direction  wsdl.Direction
	InstanceID string
	Fault      bool
	Size       int
}

// MessageLogger is the Message Logger handler: "to log the messages as
// they pass through the messaging layer ... useful for debugging
// problems, meter usage for subsequent billing to users, or trace
// business-level events" (§3.1(5)). It retains a bounded in-memory
// log; MessageLogger is safe for concurrent use.
type MessageLogger struct {
	now func() time.Time

	mu      sync.Mutex
	entries *ringbuf.Buffer[LogEntry]
}

var _ Module = (*MessageLogger)(nil)

// NewMessageLogger builds a logger retaining at most limit entries
// (limit <= 0 means 4096). now supplies timestamps.
func NewMessageLogger(now func() time.Time, limit int) *MessageLogger {
	if limit <= 0 {
		limit = 4096
	}
	return &MessageLogger{now: now, entries: ringbuf.New[LogEntry](limit)}
}

// ModuleName implements Module.
func (l *MessageLogger) ModuleName() string { return "MessageLogger" }

// ProcessRequest implements Module.
func (l *MessageLogger) ProcessRequest(mc *MessageContext) error {
	l.log(mc, wsdl.Request, mc.Request)
	return nil
}

// ProcessResponse implements Module.
func (l *MessageLogger) ProcessResponse(mc *MessageContext) error {
	l.log(mc, wsdl.Response, mc.Response)
	return nil
}

func (l *MessageLogger) log(mc *MessageContext, dir wsdl.Direction, env *soap.Envelope) {
	if env == nil {
		return
	}
	size := 0
	if text, err := env.Encode(); err == nil {
		size = len(text)
	}
	e := LogEntry{
		Time:       l.now(),
		VEP:        mc.VEP,
		Operation:  mc.Operation,
		Target:     mc.Target,
		Direction:  dir,
		InstanceID: soap.ProcessInstanceID(env),
		Fault:      env.IsFault(),
		Size:       size,
	}
	l.mu.Lock()
	l.entries.Push(e)
	l.mu.Unlock()
}

// Entries returns a copy of the retained log.
func (l *MessageLogger) Entries() []LogEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.entries.Select(nil, 0)
}

// --- Contract validator ---

// ValidatorModule validates messages against a WSDL contract in both
// directions.
type ValidatorModule struct {
	// Contract is the abstract contract to enforce.
	Contract *wsdl.Contract
}

var _ Module = (*ValidatorModule)(nil)

// ModuleName implements Module.
func (*ValidatorModule) ModuleName() string { return "Validator" }

// ProcessRequest implements Module.
func (v *ValidatorModule) ProcessRequest(mc *MessageContext) error {
	return v.Contract.Validate(mc.Request, wsdl.Request)
}

// ProcessResponse implements Module.
func (v *ValidatorModule) ProcessResponse(mc *MessageContext) error {
	if mc.Response == nil {
		return nil
	}
	return v.Contract.Validate(mc.Response, wsdl.Response)
}

// --- Message Adaptation (transformation / enrichment) ---

// Transform mutates a payload element in place; used by the Message
// Adaptation Service for "structural, value and encoding mismatches"
// between services registered with a VEP (§3.1(6)).
type Transform func(payload *xmltree.Element) error

// RenameElements returns a Transform that renames descendant elements
// (schema mapping), keyed by local name.
func RenameElements(renames map[string]string) Transform {
	return func(payload *xmltree.Element) error {
		payload.Walk(func(e *xmltree.Element) bool {
			if to, ok := renames[e.Name.Local]; ok {
				e.Name.Local = to
			}
			return true
		})
		return nil
	}
}

// AddElement returns a Transform appending a copy of el to the payload
// root — the "attach additional data from external sources" pattern
// with static data.
func AddElement(el *xmltree.Element) Transform {
	return func(payload *xmltree.Element) error {
		payload.Append(el.Copy())
		return nil
	}
}

// EnrichFrom returns a Transform that appends data fetched per message
// from an external source (e.g. a Web service call or database query).
func EnrichFrom(source func(payload *xmltree.Element) (*xmltree.Element, error)) Transform {
	return func(payload *xmltree.Element) error {
		extra, err := source(payload)
		if err != nil {
			return fmt.Errorf("enrich: %w", err)
		}
		if extra != nil {
			payload.Append(extra)
		}
		return nil
	}
}

// RemoveElements returns a Transform deleting direct children by local
// name.
func RemoveElements(locals ...string) Transform {
	drop := make(map[string]bool, len(locals))
	for _, l := range locals {
		drop[l] = true
	}
	return func(payload *xmltree.Element) error {
		kept := payload.Children[:0]
		for _, c := range payload.Children {
			if !drop[c.Name.Local] {
				kept = append(kept, c)
			}
		}
		payload.Children = kept
		return nil
	}
}

// AdaptationModule applies transforms to requests and/or responses.
type AdaptationModule struct {
	// Name labels the module.
	Name string
	// RequestTransforms run on request payloads in order.
	RequestTransforms []Transform
	// ResponseTransforms run on response payloads in order.
	ResponseTransforms []Transform
}

var _ Module = (*AdaptationModule)(nil)

// ModuleName implements Module.
func (a *AdaptationModule) ModuleName() string {
	if a.Name != "" {
		return a.Name
	}
	return "MessageAdaptation"
}

// ProcessRequest implements Module.
func (a *AdaptationModule) ProcessRequest(mc *MessageContext) error {
	if mc.Request == nil || mc.Request.Payload == nil {
		return nil
	}
	for _, t := range a.RequestTransforms {
		if err := t(mc.Request.Payload); err != nil {
			return err
		}
	}
	return nil
}

// ProcessResponse implements Module.
func (a *AdaptationModule) ProcessResponse(mc *MessageContext) error {
	if mc.Response == nil || mc.Response.Payload == nil {
		return nil
	}
	for _, t := range a.ResponseTransforms {
		if err := t(mc.Response.Payload); err != nil {
			return err
		}
	}
	return nil
}

// --- Conditional wrapper ---

// Rule decides whether a module applies to a message: "simple rules
// expressed as a regular expression or XPath query against the header
// or the payload of the message" (§3.1).
type Rule interface {
	// Applies reports whether the rule matches the message.
	Applies(env *soap.Envelope) (bool, error)
}

// XPathRule matches when a compiled XPath evaluates true over the
// message envelope.
type XPathRule struct {
	Expr *xpath.Compiled
}

var _ Rule = (*XPathRule)(nil)

// Applies implements Rule.
func (r *XPathRule) Applies(env *soap.Envelope) (bool, error) {
	if env == nil {
		return false, nil
	}
	return r.Expr.EvalBool(env.View(), xpath.Context{})
}

// RegexRule matches when a regular expression matches the serialized
// message.
type RegexRule struct {
	Pattern *regexp.Regexp
}

var _ Rule = (*RegexRule)(nil)

// Applies implements Rule.
func (r *RegexRule) Applies(env *soap.Envelope) (bool, error) {
	if env == nil {
		return false, nil
	}
	text, err := env.Encode()
	if err != nil {
		return false, err
	}
	return r.Pattern.MatchString(text), nil
}

// ConditionalModule gates an inner module behind a rule evaluated on
// the request message.
type ConditionalModule struct {
	// Rule guards the inner module.
	Rule Rule
	// Inner is the wrapped module.
	Inner Module
}

var _ Module = (*ConditionalModule)(nil)

// ModuleName implements Module.
func (c *ConditionalModule) ModuleName() string {
	return "If(" + c.Inner.ModuleName() + ")"
}

// ProcessRequest implements Module.
func (c *ConditionalModule) ProcessRequest(mc *MessageContext) error {
	ok, err := c.Rule.Applies(mc.Request)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	if mc.Meta == nil {
		mc.Meta = make(map[string]string)
	}
	mc.Meta["conditional:"+c.Inner.ModuleName()] = "applied"
	return c.Inner.ProcessRequest(mc)
}

// ProcessResponse implements Module: the inner module's response stage
// runs only when its request stage applied (same message flow).
func (c *ConditionalModule) ProcessResponse(mc *MessageContext) error {
	if mc.Meta["conditional:"+c.Inner.ModuleName()] != "applied" {
		return nil
	}
	return c.Inner.ProcessResponse(mc)
}

// --- Aggregator ---

// Aggregator buffers payload elements and flushes them as a single
// merged message once the batch size is reached — the "buffer multiple
// messages and aggregate them into a single one before sending them to
// the destination service" transformation pattern (§3.1(6)).
// Aggregator is safe for concurrent use.
type Aggregator struct {
	batch   int
	wrapper xmltree.Name

	mu     sync.Mutex
	buffer []*xmltree.Element
}

// NewAggregator builds an aggregator flushing every batch payloads into
// a wrapper element with the given namespace and local name.
func NewAggregator(batch int, space, local string) *Aggregator {
	if batch < 1 {
		batch = 1
	}
	return &Aggregator{batch: batch, wrapper: xmltree.Name{Space: space, Local: local}}
}

// Add buffers a payload copy; when the batch is full it returns the
// merged payload and true.
func (a *Aggregator) Add(payload *xmltree.Element) (*xmltree.Element, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.buffer = append(a.buffer, payload.Copy())
	if len(a.buffer) < a.batch {
		return nil, false
	}
	return a.flushLocked(), true
}

// Flush returns the merged payload of whatever is buffered (nil when
// empty).
func (a *Aggregator) Flush() *xmltree.Element {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.buffer) == 0 {
		return nil
	}
	return a.flushLocked()
}

func (a *Aggregator) flushLocked() *xmltree.Element {
	merged := xmltree.New(a.wrapper.Space, a.wrapper.Local)
	for _, p := range a.buffer {
		merged.Append(p)
	}
	a.buffer = nil
	return merged
}

// Pending reports how many payloads are buffered.
func (a *Aggregator) Pending() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.buffer)
}

// Split divides a batch payload back into its child payloads — the
// inverse of aggregation ("split/merge messages").
func Split(batch *xmltree.Element) []*xmltree.Element {
	out := make([]*xmltree.Element, 0, len(batch.Children))
	for _, c := range batch.Children {
		out = append(out, c.Copy())
	}
	return out
}
