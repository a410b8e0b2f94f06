// Package soap implements the SOAP 1.1-style message model that wsBus
// mediates: envelopes with header blocks and a payload body, SOAP
// faults, and the WS-Addressing headers MASC uses for message
// correlation (the paper's §3.1: MASCAdaptationService "transparently
// adds the ProcessInstanceID of the calling process to outgoing SOAP
// messages (using the RelatesTo Message Addressing Header)").
package soap

import (
	"errors"
	"fmt"
	"strings"

	"github.com/masc-project/masc/internal/xmltree"
)

// Namespace URIs for the envelope and addressing headers.
const (
	NamespaceEnvelope   = "http://schemas.xmlsoap.org/soap/envelope/"
	NamespaceAddressing = "http://www.w3.org/2005/08/addressing"
	// NamespaceMASC is the header namespace for MASC-specific headers
	// (process-instance correlation, routing hints).
	NamespaceMASC = "urn:masc:headers"
)

// ErrNotEnvelope reports that a parsed document is not a SOAP envelope.
var ErrNotEnvelope = errors.New("soap: document is not a SOAP envelope")

// Envelope is a decoded SOAP message: zero or more header blocks and
// either a payload element or a fault.
type Envelope struct {
	// Headers holds the child elements of soap:Header in order.
	Headers []*xmltree.Element
	// Payload is the single child element of soap:Body for non-fault
	// messages; nil when Fault is set or the body is empty.
	Payload *xmltree.Element
	// Fault is set when the body carries a soap:Fault.
	Fault *Fault
}

// FaultCode is the SOAP 1.1 fault code.
type FaultCode string

// SOAP 1.1 fault codes. Server faults indicate processing problems on
// the provider side (retriable); Client faults indicate malformed
// requests (not retriable).
const (
	FaultClient          FaultCode = "Client"
	FaultServer          FaultCode = "Server"
	FaultVersionMismatch FaultCode = "VersionMismatch"
	FaultMustUnderstand  FaultCode = "MustUnderstand"
)

// Fault is a SOAP fault.
type Fault struct {
	Code   FaultCode
	String string
	Actor  string
	Detail *xmltree.Element
}

// Error implements the error interface so a Fault can travel through
// error-returning call chains.
func (f *Fault) Error() string {
	return fmt.Sprintf("soap fault [%s]: %s", f.Code, f.String)
}

// NewRequest builds an envelope carrying payload with the given
// WS-Addressing action and a fresh message ID left for the caller to
// assign via Addressing.
func NewRequest(payload *xmltree.Element) *Envelope {
	return &Envelope{Payload: payload}
}

// NewFaultEnvelope builds an envelope whose body is a fault.
func NewFaultEnvelope(code FaultCode, faultString string) *Envelope {
	return &Envelope{Fault: &Fault{Code: code, String: faultString}}
}

// IsFault reports whether the envelope carries a fault.
func (e *Envelope) IsFault() bool { return e != nil && e.Fault != nil }

// Header returns the first header block with the given namespace and
// local name, or nil.
func (e *Envelope) Header(space, local string) *xmltree.Element {
	for _, h := range e.Headers {
		if h.Name.Local == local && (space == "" || h.Name.Space == space) {
			return h
		}
	}
	return nil
}

// SetHeader replaces any existing header block with the same expanded
// name and appends the new block.
func (e *Envelope) SetHeader(block *xmltree.Element) {
	for i, h := range e.Headers {
		if h.Name == block.Name {
			e.Headers[i] = block
			return
		}
	}
	e.Headers = append(e.Headers, block)
}

// Clone returns a deep copy of the envelope. wsBus uses this for the
// concurrent-invocation strategy, which "makes a copy of the message and
// modifies its route" for each target (paper §3.1(4)).
func (e *Envelope) Clone() *Envelope {
	if e == nil {
		return nil
	}
	cp := &Envelope{}
	for _, h := range e.Headers {
		cp.Headers = append(cp.Headers, h.Copy())
	}
	if e.Payload != nil {
		cp.Payload = e.Payload.Copy()
	}
	if e.Fault != nil {
		f := *e.Fault
		if f.Detail != nil {
			f.Detail = e.Fault.Detail.Copy()
		}
		cp.Fault = &f
	}
	return cp
}

// PayloadName returns the expanded name of the payload element, or the
// zero Name for fault/empty messages. Used by routing and monitoring to
// identify the operation a message belongs to.
func (e *Envelope) PayloadName() xmltree.Name {
	if e.Payload == nil {
		return xmltree.Name{}
	}
	return e.Payload.Name
}

// ToXML converts the envelope to an xmltree document. The document is
// a deep copy: it can be kept and changed apart from the envelope. It is
// for callers that keep the document; one that only reads it uses View.
func (e *Envelope) ToXML() *xmltree.Element {
	return e.document(true)
}

// View lays the envelope out as a SOAP 1.1 document without copying
// it: a fresh Envelope/Header/Body/Fault shell whose children are the
// envelope's own header blocks, payload and fault detail. The blocks
// are not reparented, so the view writes nothing into the envelope and
// any number of goroutines may read one view, or views of one envelope,
// at once. XPath evaluation finds a block's parent from the shell and
// reads a view as it reads ToXML's copy. The view shares the envelope's
// trees: it is for reading while the envelope is left as it is, not for
// keeping or changing.
func (e *Envelope) View() *xmltree.Element {
	return e.document(false)
}

// document lays the envelope out as a SOAP 1.1 document. With own set
// the document holds copies of the header blocks, payload and fault
// detail; otherwise it refers to the envelope's own trees, leaving
// their parent links nil. A block that has a parent elsewhere is
// copied even then, so that every block of a view hangs from the shell
// alone.
func (e *Envelope) document(own bool) *xmltree.Element {
	attach := func(parent, block *xmltree.Element) {
		switch {
		case own:
			parent.Append(block.Copy())
		case block.Parent() != nil:
			parent.Children = append(parent.Children, block.Copy())
		default:
			parent.Children = append(parent.Children, block)
		}
	}
	env := xmltree.New(NamespaceEnvelope, "Envelope")
	if len(e.Headers) > 0 {
		hdr := xmltree.New(NamespaceEnvelope, "Header")
		hdr.Children = make([]*xmltree.Element, 0, len(e.Headers))
		for _, h := range e.Headers {
			attach(hdr, h)
		}
		env.Append(hdr)
	}
	body := xmltree.New(NamespaceEnvelope, "Body")
	switch {
	case e.Fault != nil:
		f := xmltree.New(NamespaceEnvelope, "Fault")
		// SOAP 1.1 faultcode/faultstring are unqualified elements whose
		// faultcode value is a QName in the envelope namespace.
		f.Append(xmltree.NewText("", "faultcode", "soap:"+string(e.Fault.Code)))
		f.Append(xmltree.NewText("", "faultstring", e.Fault.String))
		if e.Fault.Actor != "" {
			f.Append(xmltree.NewText("", "faultactor", e.Fault.Actor))
		}
		if e.Fault.Detail != nil {
			d := xmltree.New("", "detail")
			attach(d, e.Fault.Detail)
			f.Append(d)
		}
		body.Append(f)
	case e.Payload != nil:
		attach(body, e.Payload)
	}
	env.Append(body)
	return env
}

// Encode serializes the envelope to XML text. Nothing is copied: the
// envelope's own trees are written from where they are.
func (e *Envelope) Encode() (string, error) {
	return xmltree.MarshalString(e.View())
}

// MustEncode serializes the envelope, panicking on writer errors (which
// cannot occur for in-memory serialization).
func (e *Envelope) MustEncode() string {
	s, err := e.Encode()
	if err != nil {
		panic(err)
	}
	return s
}

// Decode parses XML text into an Envelope. The envelope takes the
// header blocks and payload out of the tree it has just parsed, which
// nobody else holds, instead of copying them.
func Decode(text string) (*Envelope, error) {
	root, err := xmltree.ParseString(text)
	if err != nil {
		return nil, fmt.Errorf("soap: decode: %w", err)
	}
	return adopt(root)
}

// adopt reads the envelope out of a document the caller gives up: the
// header blocks, the payload and the fault detail leave it as
// parentless trees the envelope owns.
func adopt(root *xmltree.Element) (*Envelope, error) {
	if root.Name.Space != NamespaceEnvelope || root.Name.Local != "Envelope" {
		return nil, fmt.Errorf("%w: root is %s", ErrNotEnvelope, root.Name)
	}
	env := &Envelope{}
	if hdr := root.Child(NamespaceEnvelope, "Header"); hdr != nil && len(hdr.Children) > 0 {
		env.Headers = hdr.TakeChildren()
	}
	body := root.Child(NamespaceEnvelope, "Body")
	if body == nil {
		return nil, fmt.Errorf("%w: missing Body", ErrNotEnvelope)
	}
	if len(body.Children) == 0 {
		return env, nil
	}
	first := body.Children[0]
	if first.Name.Space == NamespaceEnvelope && first.Name.Local == "Fault" {
		f := &Fault{
			Code:   parseFaultCode(first.ChildText("", "faultcode")),
			String: first.ChildText("", "faultstring"),
			Actor:  first.ChildText("", "faultactor"),
		}
		if d := first.Child("", "detail"); d != nil && len(d.Children) > 0 {
			f.Detail = d.TakeChildren()[0]
		}
		env.Fault = f
		return env, nil
	}
	env.Payload = body.TakeChildren()[0]
	return env, nil
}

func parseFaultCode(qname string) FaultCode {
	// Strip any namespace prefix; codes compare on local part.
	if i := strings.LastIndexByte(qname, ':'); i >= 0 {
		qname = qname[i+1:]
	}
	return FaultCode(qname)
}
