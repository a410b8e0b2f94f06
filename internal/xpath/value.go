// Package xpath implements the XPath 1.0 subset that WS-Policy4MASC
// monitoring policies and wsBus routing rules evaluate against SOAP
// message headers and payloads (see paper §3.1: "simple rules expressed
// as a regular expression or XPath query against the header or the
// payload of the message").
//
// Supported: location paths with child/attribute/descendant/
// descendant-or-self/self/parent axes (plus the abbreviated @, //, ., ..
// forms), name and node()/text() tests, positional and boolean
// predicates, the boolean/equality/relational/arithmetic/union operator
// set, variables ($var), and the core function library used by policies
// (count, position, last, not, true, false, boolean, number, string,
// contains, starts-with, substring, string-length, concat,
// normalize-space, name, local-name, sum, floor, ceiling, round).
//
// One deliberate deviation from XPath 1.0: an unprefixed name test
// matches elements of that local name in ANY namespace. Policy authors
// work against SOAP payloads whose namespaces vary per service; this
// matches how the paper's examples reference payload fields
// ("the CustomerID of PurchaseOrder message") without prefix ceremony.
// Prefixed name tests resolve through the context namespace map and
// match exactly.
package xpath

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"github.com/masc-project/masc/internal/xmltree"
)

// Node is a node in the XPath data model: either an element or an
// attribute. For an attribute node, El is the owning element and Attr
// points at the attribute.
type Node struct {
	El   *xmltree.Element
	Attr *xmltree.Attr
}

// IsAttr reports whether the node is an attribute node.
func (n Node) IsAttr() bool { return n.Attr != nil }

// StringValue returns the XPath string-value of the node.
func (n Node) StringValue() string {
	if n.Attr != nil {
		return n.Attr.Value
	}
	return n.El.DeepText()
}

// Name returns the node's expanded name.
func (n Node) Name() xmltree.Name {
	if n.Attr != nil {
		return n.Attr.Name
	}
	return n.El.Name
}

// Value is the result of evaluating an expression: one of NodeSet,
// Bool, Number, or String.
type Value interface {
	// Bool converts the value to a boolean per XPath 1.0 rules.
	Bool() bool
	// Number converts the value to a float64 per XPath 1.0 rules.
	Number() float64
	// String converts the value to a string per XPath 1.0 rules.
	String() string
}

// NodeSet is an ordered set of nodes (document order, no duplicates).
type NodeSet []Node

// Bool implements Value: a node-set is true iff non-empty.
func (s NodeSet) Bool() bool { return len(s) > 0 }

// Number implements Value: the number value of the first node.
func (s NodeSet) Number() float64 {
	return stringToNumber(s.String())
}

// String implements Value: the string-value of the first node, or "".
func (s NodeSet) String() string {
	if len(s) == 0 {
		return ""
	}
	return s[0].StringValue()
}

// Bool is an XPath boolean value.
type Bool bool

// Bool implements Value.
func (b Bool) Bool() bool { return bool(b) }

// Number implements Value.
func (b Bool) Number() float64 {
	if b {
		return 1
	}
	return 0
}

// String implements Value.
func (b Bool) String() string {
	if b {
		return "true"
	}
	return "false"
}

// Number is an XPath number value.
type Number float64

// Bool implements Value: true unless zero or NaN.
func (n Number) Bool() bool {
	f := float64(n)
	return f != 0 && !math.IsNaN(f)
}

// Number implements Value.
func (n Number) Number() float64 { return float64(n) }

// String implements Value.
func (n Number) String() string {
	f := float64(n)
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == math.Trunc(f) && math.Abs(f) < 1e15:
		return strconv.FormatInt(int64(f), 10)
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

// String is an XPath string value.
type String string

// Bool implements Value: true iff non-empty.
func (s String) Bool() bool { return len(s) > 0 }

// Number implements Value.
func (s String) Number() float64 { return stringToNumber(string(s)) }

// String implements Value.
func (s String) String() string { return string(s) }

func stringToNumber(s string) float64 {
	s = strings.TrimSpace(s)
	if s == "" {
		return math.NaN()
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return f
}

// Context carries the evaluation environment: namespace prefix bindings
// for prefixed name tests and variable bindings for $var references.
type Context struct {
	// Namespaces maps prefix -> namespace URI.
	Namespaces map[string]string
	// Vars maps variable name -> value.
	Vars map[string]Value
}

// Compiled is an XPath expression lowered into a tree of closures, the
// "object representation of policies" the paper plans for the .NET
// wsBus. Compile resolves once every decision that depends only on the
// expression's shape (operators, axes, the text() rewrite, functions, a
// literal matches() pattern); evaluation runs the pre-bound closures.
// A Compiled is immutable and safe for concurrent use.
type Compiled struct {
	src  string
	fn   progFn
	vars []string
}

// Source returns the original expression text.
func (c *Compiled) Source() string { return c.src }

// Vars returns the names of the variables the expression references,
// sorted, without the "$". Evaluating it with any of them unbound is an
// error. The slice is shared: callers must not modify it.
func (c *Compiled) Vars() []string { return c.vars }

// Program returns c itself, which is already the lowered program. Its
// only caller outside tests is the layer benchmark (benchmark/layers.go).
func (c *Compiled) Program() *Compiled { return c }

// Compile parses an XPath expression and lowers it.
func Compile(src string) (*Compiled, error) {
	p := newParser(src)
	e, err := p.parseExpr()
	if err != nil {
		return nil, fmt.Errorf("xpath: compile %q: %w", src, err)
	}
	if p.peek().kind != tokEOF {
		return nil, fmt.Errorf("xpath: compile %q: trailing input at %q", src, p.peek().text)
	}
	var lw lowerer
	fn := lw.expr(e)
	if lw.err != nil {
		return nil, fmt.Errorf("xpath: compile %q: %w", src, lw.err)
	}
	slices.Sort(lw.vars)
	return &Compiled{src: src, fn: fn, vars: lw.vars}, nil
}

// MustCompile is Compile that panics on error; for static expressions.
func MustCompile(src string) *Compiled {
	c, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return c
}

// EvalContext evaluates the expression against root with the given
// environment.
func (c *Compiled) EvalContext(root *xmltree.Element, env Context) (Value, error) {
	ev := &evaluator{env: env, root: root}
	return c.fn(ev, evalPos{node: Node{El: root}, pos: 1, size: 1})
}

// EvalBool is a convenience wrapper returning the boolean value.
func (c *Compiled) EvalBool(root *xmltree.Element, env Context) (bool, error) {
	v, err := c.EvalContext(root, env)
	if err != nil {
		return false, err
	}
	return v.Bool(), nil
}
