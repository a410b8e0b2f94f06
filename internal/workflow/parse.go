package workflow

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"github.com/masc-project/masc/internal/xmltree"
	"github.com/masc-project/masc/internal/xpath"
)

// Namespace is the XML namespace of process definitions (the XAML
// /.xoml analog).
const Namespace = "urn:masc:workflow"

// ErrParseDefinition wraps process-definition parse failures.
var ErrParseDefinition = errors.New("workflow: parse definition")

// ParseDefinition reads an XML process definition:
//
//	<process xmlns="urn:masc:workflow" name="TradingProcess">
//	  <variables><variable name="order"/></variables>
//	  <sequence name="main"> … </sequence>
//	</process>
//
// The root activity is the single non-variables child.
func ParseDefinition(r io.Reader) (*Definition, error) {
	root, err := xmltree.Parse(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrParseDefinition, err)
	}
	return DefinitionFromXML(root)
}

// ParseDefinitionString parses a definition from a string.
func ParseDefinitionString(s string) (*Definition, error) {
	return ParseDefinition(strings.NewReader(s))
}

// DefinitionFromXML converts a parsed document into a Definition.
func DefinitionFromXML(root *xmltree.Element) (*Definition, error) {
	if root.Name.Local != "process" {
		return nil, fmt.Errorf("%w: root element is %q, want process", ErrParseDefinition, root.Name.Local)
	}
	name := root.AttrValue("", "name")
	if name == "" {
		return nil, fmt.Errorf("%w: process lacks name", ErrParseDefinition)
	}
	var variables []string
	var rootAct Activity
	for _, child := range root.Children {
		switch child.Name.Local {
		case "variables":
			for _, v := range child.Children {
				if v.Name.Local != "variable" {
					return nil, fmt.Errorf("%w: unexpected %q in variables", ErrParseDefinition, v.Name.Local)
				}
				vn := v.AttrValue("", "name")
				if vn == "" {
					return nil, fmt.Errorf("%w: variable lacks name", ErrParseDefinition)
				}
				variables = append(variables, vn)
			}
		default:
			if rootAct != nil {
				return nil, fmt.Errorf("%w: process %q has multiple root activities", ErrParseDefinition, name)
			}
			a, err := ParseActivity(child)
			if err != nil {
				return nil, fmt.Errorf("%w: process %q: %v", ErrParseDefinition, name, err)
			}
			rootAct = a
		}
	}
	if rootAct == nil {
		return nil, fmt.Errorf("%w: process %q has no root activity", ErrParseDefinition, name)
	}
	def, err := NewDefinition(name, rootAct, variables...)
	if err != nil {
		return nil, fmt.Errorf("%w: process %q: %v", ErrParseDefinition, name, err)
	}
	return def, nil
}

// ParseActivity converts an activity element into an Activity. This is
// also the entry point for inline activity specifications carried by
// WS-Policy4MASC AddActivity/ReplaceActivity actions.
func ParseActivity(e *xmltree.Element) (Activity, error) {
	name := e.AttrValue("", "name")
	if name == "" {
		return nil, fmt.Errorf("%s element lacks name attribute", e.Name.Local)
	}
	switch e.Name.Local {
	case "sequence":
		children, err := parseChildren(e.Children)
		if err != nil {
			return nil, fmt.Errorf("sequence %q: %w", name, err)
		}
		return NewSequence(name, children...), nil

	case "parallel":
		branches, err := parseChildren(e.Children)
		if err != nil {
			return nil, fmt.Errorf("parallel %q: %w", name, err)
		}
		return NewParallel(name, branches...), nil

	case "if":
		cond, err := compileTest(e, name)
		if err != nil {
			return nil, err
		}
		var then, els Activity
		for _, c := range e.Children {
			switch c.Name.Local {
			case "then":
				if then, err = parseBranch(c, name+"/then"); err != nil {
					return nil, err
				}
			case "else":
				if els, err = parseBranch(c, name+"/else"); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("if %q: unexpected %q", name, c.Name.Local)
			}
		}
		if then == nil {
			return nil, fmt.Errorf("if %q: missing then branch", name)
		}
		return NewIf(name, cond, then, els), nil

	case "while":
		cond, err := compileTest(e, name)
		if err != nil {
			return nil, err
		}
		body, err := parseBranch(e, name+"/body")
		if err != nil {
			return nil, err
		}
		return NewWhile(name, cond, body), nil

	case "invoke":
		spec := InvokeSpec{
			Endpoint:    e.AttrValue("", "endpoint"),
			ServiceType: e.AttrValue("", "serviceType"),
			Operation:   e.AttrValue("", "operation"),
			InputVar:    e.AttrValue("", "input"),
			OutputVar:   e.AttrValue("", "output"),
		}
		if spec.Operation == "" {
			return nil, fmt.Errorf("invoke %q: missing operation", name)
		}
		if spec.Endpoint == "" && spec.ServiceType == "" {
			return nil, fmt.Errorf("invoke %q: needs endpoint or serviceType", name)
		}
		if raw := e.AttrValue("", "timeout"); raw != "" {
			d, err := time.ParseDuration(raw)
			if err != nil {
				return nil, fmt.Errorf("invoke %q: bad timeout %q", name, raw)
			}
			spec.Timeout = d
		}
		if in := e.Child("", "input"); in != nil {
			if len(in.Children) != 1 {
				return nil, fmt.Errorf("invoke %q: inline input must hold exactly one element", name)
			}
			spec.InputLiteral = in.Children[0]
		}
		return NewInvoke(name, spec), nil

	case "assign":
		var assignments []Assignment
		for _, c := range e.Children {
			switch c.Name.Local {
			case "copy":
				src := c.AttrValue("", "from")
				expr, err := xpath.Compile(src)
				if err != nil {
					return nil, fmt.Errorf("assign %q: from %q: %v", name, src, err)
				}
				to := c.AttrValue("", "to")
				if to == "" {
					return nil, fmt.Errorf("assign %q: copy lacks to", name)
				}
				assignments = append(assignments, Assignment{To: to, From: expr})
			case "set":
				to := c.AttrValue("", "to")
				if to == "" || len(c.Children) != 1 {
					return nil, fmt.Errorf("assign %q: set needs to attribute and one literal child", name)
				}
				assignments = append(assignments, Assignment{To: to, Literal: c.Children[0].Copy()})
			default:
				return nil, fmt.Errorf("assign %q: unexpected %q", name, c.Name.Local)
			}
		}
		if len(assignments) == 0 {
			return nil, fmt.Errorf("assign %q: no assignments", name)
		}
		return NewAssign(name, assignments...), nil

	case "delay":
		raw := e.AttrValue("", "duration")
		d, err := time.ParseDuration(raw)
		if err != nil {
			return nil, fmt.Errorf("delay %q: bad duration %q", name, raw)
		}
		return NewDelay(name, d), nil

	case "scope":
		var body, catch Activity
		var err error
		faultVar := "fault"
		for _, c := range e.Children {
			switch c.Name.Local {
			case "body":
				if body, err = parseBranch(c, name+"/body"); err != nil {
					return nil, err
				}
			case "catch":
				if fv := c.AttrValue("", "faultVariable"); fv != "" {
					faultVar = fv
				}
				if catch, err = parseBranch(c, name+"/catch"); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("scope %q: unexpected %q", name, c.Name.Local)
			}
		}
		if body == nil {
			return nil, fmt.Errorf("scope %q: missing body", name)
		}
		s := NewScope(name, body, catch)
		s.faultVariable = faultVar
		return s, nil

	case "terminate":
		return NewTerminate(name), nil

	case "noop":
		return NewNoOp(name), nil

	default:
		return nil, fmt.Errorf("unknown activity element %q", e.Name.Local)
	}
}

func parseChildren(els []*xmltree.Element) ([]Activity, error) {
	out := make([]Activity, 0, len(els))
	for _, c := range els {
		a, err := ParseActivity(c)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// parseBranch parses a wrapper element's children; multiple children
// become an implicit sequence named implicitName.
func parseBranch(wrapper *xmltree.Element, implicitName string) (Activity, error) {
	children, err := parseChildren(wrapper.Children)
	if err != nil {
		return nil, err
	}
	switch len(children) {
	case 0:
		return nil, fmt.Errorf("%s: empty branch", implicitName)
	case 1:
		return children[0], nil
	default:
		return NewSequence(implicitName, children...), nil
	}
}

func compileTest(e *xmltree.Element, name string) (*xpath.Compiled, error) {
	src := e.AttrValue("", "test")
	if src == "" {
		return nil, fmt.Errorf("%s %q: missing test attribute", e.Name.Local, name)
	}
	cond, err := xpath.Compile(src)
	if err != nil {
		return nil, fmt.Errorf("%s %q: %v", e.Name.Local, name, err)
	}
	return cond, nil
}
