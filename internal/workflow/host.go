package workflow

import (
	"context"
	"fmt"
	"time"

	"github.com/masc-project/masc/internal/soap"
	"github.com/masc-project/masc/internal/transport"
	"github.com/masc-project/masc/internal/xmltree"
)

// ProcessHost exposes a deployed process definition as a SOAP service:
// each incoming request starts one instance with the request payload
// bound to the input variable, waits for completion, and answers with
// the output variable's value. This is how a composition like the
// paper's Trading Process is "initiated when a human investor places
// an investment or redemption order" (§2.2, Fig. 2) — the process IS
// the service implementation.
type ProcessHost struct {
	// Engine runs the instances.
	Engine *Engine
	// Definition names the deployed process to instantiate.
	Definition string
	// InputVar receives the request payload.
	InputVar string
	// Defaults seeds additional variables before InputVar is bound —
	// for processes whose later activities need inputs the initiating
	// request does not carry. One map serves every request unmodified:
	// the engine copies each input into the instance it starts.
	Defaults map[string]*xmltree.Element
	// OutputVar supplies the response payload; empty returns an
	// acknowledgement element instead.
	OutputVar string
	// Timeout bounds each instance's execution (default 30s).
	Timeout time.Duration
}

var _ transport.Handler = (*ProcessHost)(nil)

// Serve implements transport.Handler.
func (h *ProcessHost) Serve(ctx context.Context, req *soap.Envelope) (*soap.Envelope, error) {
	if req.Payload == nil {
		return soap.NewFaultEnvelope(soap.FaultClient, "process host: empty request"), nil
	}
	inputs := make(map[string]*xmltree.Element, len(h.Defaults)+1)
	for name, val := range h.Defaults {
		inputs[name] = val
	}
	if h.InputVar != "" {
		inputs[h.InputVar] = req.Payload
	}
	inst, err := h.Engine.Start(h.Definition, inputs)
	if err != nil {
		return nil, fmt.Errorf("workflow: host %s: %w", h.Definition, err)
	}

	timeout := h.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	select {
	case <-inst.Done():
	case <-ctx.Done():
		inst.Terminate()
		<-inst.Done()
	case <-time.After(timeout):
		inst.Terminate()
		<-inst.Done()
		return soap.NewFaultEnvelope(soap.FaultServer,
			fmt.Sprintf("ProcessTimeoutFault: instance %s exceeded %v", inst.ID(), timeout)), nil
	}

	switch inst.State() {
	case StateCompleted:
		if h.OutputVar != "" {
			if out, ok := inst.GetVar(h.OutputVar); ok {
				resp := soap.NewRequest(out)
				soap.SetProcessInstanceID(resp, inst.ID())
				return resp, nil
			}
		}
		ack := xmltree.New(Namespace, "processCompleted")
		ack.SetAttr("", "instance", inst.ID())
		return soap.NewRequest(ack), nil
	case StateTerminated:
		return soap.NewFaultEnvelope(soap.FaultServer,
			fmt.Sprintf("ProcessTerminatedFault: instance %s", inst.ID())), nil
	default:
		detail := ""
		if err := inst.Err(); err != nil {
			detail = ": " + err.Error()
		}
		return soap.NewFaultEnvelope(soap.FaultServer,
			fmt.Sprintf("ProcessFault: instance %s %s%s", inst.ID(), inst.State(), detail)), nil
	}
}
