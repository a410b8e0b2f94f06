package wsdl

import (
	"fmt"

	"github.com/masc-project/masc/internal/xmltree"
)

// Namespace qualifies serialized contract documents. The format is a
// compact WSDL-like description (portType + message parts + declared
// faults), not the full WSDL 1.1 grammar — it carries exactly what the
// middleware consumes, and it is what a VEP publishes as its "abstract
// WSDL for accessing the configured services" (§3.1).
const Namespace = "urn:masc:wsdl"

// ToXML serializes a contract.
func (c *Contract) ToXML() *xmltree.Element {
	root := xmltree.New(Namespace, "contract")
	root.SetAttr("", "name", c.Name)
	root.SetAttr("", "targetNamespace", c.TargetNamespace)
	for _, op := range c.Operations() {
		oe := xmltree.New(Namespace, "operation")
		oe.SetAttr("", "name", op.Name)
		if op.InputElement != op.Name {
			oe.SetAttr("", "inputElement", op.InputElement)
		}
		if op.OutputElement != op.Name+"Response" {
			oe.SetAttr("", "outputElement", op.OutputElement)
		}
		if op.Doc != "" {
			oe.Append(xmltree.NewText(Namespace, "documentation", op.Doc))
		}
		appendParts(oe, "inputPart", op.RequiredInputParts)
		appendParts(oe, "outputPart", op.RequiredOutputParts)
		for _, f := range op.Faults {
			fe := xmltree.New(Namespace, "fault")
			fe.SetAttr("", "name", f)
			oe.Append(fe)
		}
		root.Append(oe)
	}
	return root
}

func appendParts(oe *xmltree.Element, local string, parts []string) {
	for _, p := range parts {
		pe := xmltree.New(Namespace, local)
		pe.SetAttr("", "name", p)
		oe.Append(pe)
	}
}

// Encode serializes a contract to XML text.
func (c *Contract) Encode() (string, error) {
	return xmltree.MarshalString(c.ToXML())
}

// ParseContractString parses a serialized contract.
func ParseContractString(s string) (*Contract, error) {
	root, err := xmltree.ParseString(s)
	if err != nil {
		return nil, fmt.Errorf("wsdl: parse contract: %w", err)
	}
	if root.Name.Local != "contract" {
		return nil, fmt.Errorf("wsdl: root element is %q, want contract", root.Name.Local)
	}
	name := root.AttrValue("", "name")
	if name == "" {
		return nil, fmt.Errorf("wsdl: contract lacks name")
	}
	c := NewContract(name, root.AttrValue("", "targetNamespace"))
	for _, oe := range root.ChildrenNamed("", "operation") {
		op := Operation{
			Name:          oe.AttrValue("", "name"),
			InputElement:  oe.AttrValue("", "inputElement"),
			OutputElement: oe.AttrValue("", "outputElement"),
			Doc:           oe.ChildText("", "documentation"),
		}
		if op.Name == "" {
			return nil, fmt.Errorf("wsdl: contract %q has unnamed operation", name)
		}
		for _, pe := range oe.ChildrenNamed("", "inputPart") {
			op.RequiredInputParts = append(op.RequiredInputParts, pe.AttrValue("", "name"))
		}
		for _, pe := range oe.ChildrenNamed("", "outputPart") {
			op.RequiredOutputParts = append(op.RequiredOutputParts, pe.AttrValue("", "name"))
		}
		for _, fe := range oe.ChildrenNamed("", "fault") {
			op.Faults = append(op.Faults, fe.AttrValue("", "name"))
		}
		c.AddOperation(op)
	}
	return c, nil
}
