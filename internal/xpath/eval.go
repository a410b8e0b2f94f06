package xpath

import (
	"fmt"
	"math"
	"regexp"
	"strings"

	"github.com/masc-project/masc/internal/xmltree"
)

type evaluator struct {
	env  Context
	root *xmltree.Element
	doc  *xmltree.Element // lazily created virtual document node
}

// docNode returns a synthetic document node whose only child is the
// root element, so that absolute paths like /Envelope select the root
// element itself (XPath evaluates "/" to the document node, which our
// element-only model does not otherwise have). The root's parent link
// is deliberately left nil so ".." from the root selects nothing.
func (ev *evaluator) docNode() *xmltree.Element {
	if ev.doc == nil {
		ev.doc = &xmltree.Element{Children: []*xmltree.Element{ev.root}}
	}
	return ev.doc
}

// evalPos is the dynamic context: the context node plus its proximity
// position and the context size (for position()/last()).
type evalPos struct {
	node Node
	pos  int
	size int
}

// compare implements XPath 1.0 comparison semantics, including the
// existential semantics of node-set operands.
func compare(op string, l, r Value) bool {
	ls, lIsSet := l.(NodeSet)
	rs, rIsSet := r.(NodeSet)
	// Node-set vs boolean compares boolean(node-set), not each node
	// (XPath 1.0 §3.4).
	if (op == "=" || op == "!=") && (lIsSet != rIsSet) {
		if _, rIsBool := r.(Bool); rIsBool && lIsSet {
			return compareScalar(op, Bool(l.Bool()), r)
		}
		if _, lIsBool := l.(Bool); lIsBool && rIsSet {
			return compareScalar(op, l, Bool(r.Bool()))
		}
	}
	switch {
	case lIsSet && rIsSet:
		for _, a := range ls {
			for _, b := range rs {
				if compareScalar(op, String(a.StringValue()), String(b.StringValue())) {
					return true
				}
			}
		}
		return false
	case lIsSet:
		for _, a := range ls {
			if compareScalar(op, nodeScalar(a, r), r) {
				return true
			}
		}
		return false
	case rIsSet:
		for _, b := range rs {
			if compareScalar(op, l, nodeScalar(b, l)) {
				return true
			}
		}
		return false
	default:
		return compareScalar(op, l, r)
	}
}

// nodeScalar converts a node to the scalar kind of the other operand.
func nodeScalar(n Node, other Value) Value {
	switch other.(type) {
	case Number:
		return Number(stringToNumber(n.StringValue()))
	case Bool:
		return Bool(true) // a node exists
	default:
		return String(n.StringValue())
	}
}

func compareScalar(op string, l, r Value) bool {
	switch op {
	case "=", "!=":
		var eq bool
		switch {
		case isBool(l) || isBool(r):
			eq = l.Bool() == r.Bool()
		case isNumber(l) || isNumber(r):
			eq = l.Number() == r.Number()
		default:
			eq = l.String() == r.String()
		}
		if op == "=" {
			return eq
		}
		return !eq
	case "<":
		return l.Number() < r.Number()
	case "<=":
		return l.Number() <= r.Number()
	case ">":
		return l.Number() > r.Number()
	case ">=":
		return l.Number() >= r.Number()
	}
	return false
}

func isBool(v Value) bool   { _, ok := v.(Bool); return ok }
func isNumber(v Value) bool { _, ok := v.(Number); return ok }

// parentOf returns the parent of e in the document under evaluation.
// A view (soap.Envelope.View) hangs trees it does not own from a shell
// of its own without reparenting them, so such a block has no parent
// link; its parent is the shell element that lists it as a child. The
// search for it descends only over links that point back, which in a
// view is the shell alone: a handful of elements.
func (ev *evaluator) parentOf(e *xmltree.Element) *xmltree.Element {
	if p := e.Parent(); p != nil || e == ev.root || e == ev.doc {
		return p
	}
	return graftParent(ev.root, e)
}

// graftParent returns the element under p, p included, whose children
// list e, descending only into children whose parent link is set.
func graftParent(p, e *xmltree.Element) *xmltree.Element {
	for _, c := range p.Children {
		if c == e {
			return p
		}
	}
	for _, c := range p.Children {
		if c.Parent() == p {
			if q := graftParent(c, e); q != nil {
				return q
			}
		}
	}
	return nil
}

// --- Function library ---

// applyFunc applies the XPath function library to already-evaluated
// arguments. The lowered program and the test oracle share it, so both
// report identical runtime errors.
func applyFunc(name string, args []Value, ctx evalPos) (Value, error) {
	argc := func(want ...int) error {
		for _, w := range want {
			if len(args) == w {
				return nil
			}
		}
		return fmt.Errorf("%s(): got %d arguments", name, len(args))
	}
	nodeSetArg := func(i int) (NodeSet, error) {
		ns, ok := args[i].(NodeSet)
		if !ok {
			return nil, fmt.Errorf("%s(): argument %d is %T, not a node-set", name, i+1, args[i])
		}
		return ns, nil
	}
	strOrCtx := func() string {
		if len(args) >= 1 {
			return args[0].String()
		}
		return ctx.node.StringValue()
	}

	switch name {
	case "true":
		if err := argc(0); err != nil {
			return nil, err
		}
		return Bool(true), nil
	case "false":
		if err := argc(0); err != nil {
			return nil, err
		}
		return Bool(false), nil
	case "not":
		if err := argc(1); err != nil {
			return nil, err
		}
		return Bool(!args[0].Bool()), nil
	case "boolean":
		if err := argc(1); err != nil {
			return nil, err
		}
		return Bool(args[0].Bool()), nil
	case "number":
		if err := argc(0, 1); err != nil {
			return nil, err
		}
		if len(args) == 1 {
			return Number(args[0].Number()), nil
		}
		return Number(stringToNumber(ctx.node.StringValue())), nil
	case "string":
		if err := argc(0, 1); err != nil {
			return nil, err
		}
		return String(strOrCtx()), nil
	case "count":
		if err := argc(1); err != nil {
			return nil, err
		}
		ns, err := nodeSetArg(0)
		if err != nil {
			return nil, err
		}
		return Number(len(ns)), nil
	case "sum":
		if err := argc(1); err != nil {
			return nil, err
		}
		ns, err := nodeSetArg(0)
		if err != nil {
			return nil, err
		}
		var total float64
		for _, n := range ns {
			total += stringToNumber(n.StringValue())
		}
		return Number(total), nil
	case "position":
		if err := argc(0); err != nil {
			return nil, err
		}
		return Number(ctx.pos), nil
	case "last":
		if err := argc(0); err != nil {
			return nil, err
		}
		return Number(ctx.size), nil
	case "contains":
		if err := argc(2); err != nil {
			return nil, err
		}
		return Bool(strings.Contains(args[0].String(), args[1].String())), nil
	case "starts-with":
		if err := argc(2); err != nil {
			return nil, err
		}
		return Bool(strings.HasPrefix(args[0].String(), args[1].String())), nil
	case "concat":
		if len(args) < 2 {
			return nil, fmt.Errorf("concat(): need at least 2 arguments, got %d", len(args))
		}
		var sb strings.Builder
		for _, a := range args {
			sb.WriteString(a.String())
		}
		return String(sb.String()), nil
	case "substring":
		if err := argc(2, 3); err != nil {
			return nil, err
		}
		s := args[0].String()
		runes := []rune(s)
		start := int(math.Round(args[1].Number())) // 1-based
		end := len(runes) + 1
		if len(args) == 3 {
			end = start + int(math.Round(args[2].Number()))
		}
		if start < 1 {
			start = 1
		}
		if end > len(runes)+1 {
			end = len(runes) + 1
		}
		if start >= end {
			return String(""), nil
		}
		return String(string(runes[start-1 : end-1])), nil
	case "string-length":
		if err := argc(0, 1); err != nil {
			return nil, err
		}
		return Number(len([]rune(strOrCtx()))), nil
	case "normalize-space":
		if err := argc(0, 1); err != nil {
			return nil, err
		}
		return String(strings.Join(strings.Fields(strOrCtx()), " ")), nil
	case "name", "local-name":
		if err := argc(0, 1); err != nil {
			return nil, err
		}
		var n Node
		if len(args) == 1 {
			ns, err := nodeSetArg(0)
			if err != nil {
				return nil, err
			}
			if len(ns) == 0 {
				return String(""), nil
			}
			n = ns[0]
		} else {
			n = ctx.node
		}
		return String(n.Name().Local), nil
	case "floor":
		if err := argc(1); err != nil {
			return nil, err
		}
		return Number(math.Floor(args[0].Number())), nil
	case "ceiling":
		if err := argc(1); err != nil {
			return nil, err
		}
		return Number(math.Ceil(args[0].Number())), nil
	case "round":
		if err := argc(1); err != nil {
			return nil, err
		}
		return Number(math.Round(args[0].Number())), nil
	case "substring-before":
		if err := argc(2); err != nil {
			return nil, err
		}
		s := args[0].String()
		if i := strings.Index(s, args[1].String()); i >= 0 {
			return String(s[:i]), nil
		}
		return String(""), nil
	case "substring-after":
		if err := argc(2); err != nil {
			return nil, err
		}
		s, sep := args[0].String(), args[1].String()
		if i := strings.Index(s, sep); i >= 0 {
			return String(s[i+len(sep):]), nil
		}
		return String(""), nil
	case "translate":
		if err := argc(3); err != nil {
			return nil, err
		}
		from := []rune(args[1].String())
		to := []rune(args[2].String())
		repl := make(map[rune]rune, len(from))
		drop := make(map[rune]bool)
		for i, r := range from {
			if _, seen := repl[r]; seen || drop[r] {
				continue
			}
			if i < len(to) {
				repl[r] = to[i]
			} else {
				drop[r] = true
			}
		}
		return String(strings.Map(func(r rune) rune {
			if drop[r] {
				return -1
			}
			if v, ok := repl[r]; ok {
				return v
			}
			return r
		}, args[0].String())), nil
	case "matches":
		// Extension: regular-expression matching, per the paper's "simple
		// rules expressed as a regular expression or XPath query".
		if err := argc(2); err != nil {
			return nil, err
		}
		// A literal pattern is compiled once, by lowerMatches; one that
		// is computed, possibly from the message, is compiled per call
		// and kept nowhere.
		re, err := regexp.Compile(args[1].String())
		if err != nil {
			return nil, fmt.Errorf("matches(): %w", err)
		}
		return Bool(re.MatchString(args[0].String())), nil
	default:
		return nil, fmt.Errorf("unknown function %s()", name)
	}
}
