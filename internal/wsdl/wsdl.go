// Package wsdl provides lightweight WSDL-style service contracts: the
// operations a service exposes, the payload elements its messages use,
// and the faults it declares. Monitoring policies validate exchanged
// messages against these contracts ("exchanged messages between
// participant services must be validated to ensure conformance to the
// service contract expected by the service composition", paper §3.1(2)),
// and VEPs expose an abstract contract for the services they group.
package wsdl

import (
	"errors"
	"fmt"
	"sort"

	"github.com/masc-project/masc/internal/soap"
)

// Errors returned by contract validation.
var (
	// ErrUnknownOperation reports a message whose payload matches no
	// declared operation.
	ErrUnknownOperation = errors.New("wsdl: message matches no declared operation")
	// ErrMissingPart reports a payload missing a required part element.
	ErrMissingPart = errors.New("wsdl: required message part missing")
)

// Contract describes a service interface (a WSDL portType plus the
// message schemas MASC needs).
type Contract struct {
	// Name is the service type name, e.g. "Retailer".
	Name string
	// TargetNamespace qualifies the operation payload elements.
	TargetNamespace string

	ops map[string]*Operation
}

// Operation is one request/response operation.
type Operation struct {
	// Name is the operation name, e.g. "getCatalog".
	Name string
	// InputElement is the local name of the request payload element.
	InputElement string
	// OutputElement is the local name of the response payload element.
	OutputElement string
	// RequiredInputParts lists child elements the request must carry.
	RequiredInputParts []string
	// RequiredOutputParts lists child elements the response must carry.
	RequiredOutputParts []string
	// Faults lists the fault names the operation declares; the
	// monitoring service listens for these ("the Monitoring Service
	// listens to fault messages returned by invoked services as
	// specified in their WSDL interface").
	Faults []string
	// Doc is human documentation.
	Doc string
}

// NewContract builds an empty contract.
func NewContract(name, targetNamespace string) *Contract {
	return &Contract{
		Name:            name,
		TargetNamespace: targetNamespace,
		ops:             make(map[string]*Operation),
	}
}

// AddOperation declares an operation. A nil InputElement/OutputElement
// defaults to the operation name and name+"Response" respectively.
func (c *Contract) AddOperation(op Operation) *Contract {
	if op.InputElement == "" {
		op.InputElement = op.Name
	}
	if op.OutputElement == "" {
		op.OutputElement = op.Name + "Response"
	}
	cp := op
	c.ops[op.Name] = &cp
	return c
}

// Operation returns the named operation, or nil.
func (c *Contract) Operation(name string) *Operation {
	return c.ops[name]
}

// Operations returns all operations sorted by name.
func (c *Contract) Operations() []*Operation {
	out := make([]*Operation, 0, len(c.ops))
	for _, op := range c.ops {
		out = append(out, op)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Direction distinguishes request from response validation.
type Direction int

// Message directions.
const (
	Request Direction = iota + 1
	Response
)

// String renders the direction for error messages.
func (d Direction) String() string {
	if d == Request {
		return "request"
	}
	return "response"
}

// OperationForMessage identifies which operation a message belongs to
// by its payload element name, and the direction implied by that
// element. Fault messages match no operation.
func (c *Contract) OperationForMessage(env *soap.Envelope) (*Operation, Direction, error) {
	name := env.PayloadName()
	if name.Local == "" {
		return nil, 0, fmt.Errorf("%w: empty or fault body", ErrUnknownOperation)
	}
	if c.TargetNamespace != "" && name.Space != "" && name.Space != c.TargetNamespace {
		return nil, 0, fmt.Errorf("%w: namespace %q is not %q", ErrUnknownOperation, name.Space, c.TargetNamespace)
	}
	for _, op := range c.ops {
		if name.Local == op.InputElement {
			return op, Request, nil
		}
		if name.Local == op.OutputElement {
			return op, Response, nil
		}
	}
	return nil, 0, fmt.Errorf("%w: payload element %q", ErrUnknownOperation, name.Local)
}

// Validate checks a message against the contract: the payload element
// must belong to a declared operation in the given direction and carry
// the required parts. SOAP faults are always valid responses (fault
// handling is the monitor's job, not the validator's).
func (c *Contract) Validate(env *soap.Envelope, dir Direction) error {
	if env.IsFault() {
		if dir == Response {
			return nil
		}
		return fmt.Errorf("%w: fault as request", ErrUnknownOperation)
	}
	op, gotDir, err := c.OperationForMessage(env)
	if err != nil {
		return err
	}
	if gotDir != dir {
		return fmt.Errorf("%w: element %q is a %s element, message is a %s",
			ErrUnknownOperation, env.PayloadName().Local, gotDir, dir)
	}
	required := op.RequiredInputParts
	if dir == Response {
		required = op.RequiredOutputParts
	}
	for _, part := range required {
		if env.Payload.Child("", part) == nil {
			return fmt.Errorf("%w: %s of %s.%s lacks %q",
				ErrMissingPart, dir, c.Name, op.Name, part)
		}
	}
	return nil
}
