package wsdl

import (
	"fmt"
	"sort"

	"github.com/masc-project/masc/internal/xmltree"
)

// Test-only helpers: no shipped binary calls these, so they live
// with the tests that do.

// NewInput builds a request payload element for the named operation in
// the contract's namespace. Parts are appended as text children in the
// order given.
func (c *Contract) NewInput(opName string, parts map[string]string) (*xmltree.Element, error) {
	op := c.Operation(opName)
	if op == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownOperation, opName)
	}
	return buildPayload(c.TargetNamespace, op.InputElement, parts), nil
}

// NewOutput builds a response payload element for the named operation.
func (c *Contract) NewOutput(opName string, parts map[string]string) (*xmltree.Element, error) {
	op := c.Operation(opName)
	if op == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownOperation, opName)
	}
	return buildPayload(c.TargetNamespace, op.OutputElement, parts), nil
}

func buildPayload(ns, element string, parts map[string]string) *xmltree.Element {
	e := xmltree.New(ns, element)
	keys := make([]string, 0, len(parts))
	for k := range parts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.Append(xmltree.NewText(ns, k, parts[k]))
	}
	return e
}

// DeclaresFault reports whether the named operation declares the fault.
func (c *Contract) DeclaresFault(opName, faultName string) bool {
	op := c.Operation(opName)
	if op == nil {
		return false
	}
	for _, f := range op.Faults {
		if f == faultName {
			return true
		}
	}
	return false
}
