package bus

import (
	"fmt"
	"sync"
	"time"

	"github.com/masc-project/masc/internal/ringbuf"
	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/wsdl"
	"github.com/masc-project/masc/internal/xmltree"
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
	e := LogEntry{
		Time:       l.now(),
		VEP:        mc.VEP,
		Operation:  mc.Operation,
		Target:     mc.Target,
		Direction:  dir,
		InstanceID: soap.ProcessInstanceID(env),
		Fault:      env.IsFault(),
	}
	l.mu.Lock()
	l.entries.Push(e)
	l.mu.Unlock()
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
