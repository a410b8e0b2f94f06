package xpath

import (
	"fmt"
	"math"
	"regexp"
	"strings"
	"sync"

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

func (ev *evaluator) eval(e expr, ctx evalPos) (Value, error) {
	switch x := e.(type) {
	case literalExpr:
		return String(x.s), nil
	case numberExpr:
		return Number(x.f), nil
	case varExpr:
		v, ok := ev.env.Vars[x.name]
		if !ok {
			return nil, fmt.Errorf("undefined variable $%s", x.name)
		}
		return v, nil
	case negExpr:
		v, err := ev.eval(x.operand, ctx)
		if err != nil {
			return nil, err
		}
		return Number(-v.Number()), nil
	case binaryExpr:
		return ev.evalBinary(x, ctx)
	case unionExpr:
		return ev.evalUnion(x, ctx)
	case funcExpr:
		return ev.evalFunc(x, ctx)
	case filterExpr:
		return ev.evalFilter(x, ctx)
	case pathExpr:
		return ev.evalPath(x, ctx)
	default:
		return nil, fmt.Errorf("unknown expression node %T", e)
	}
}

func (ev *evaluator) evalBinary(x binaryExpr, ctx evalPos) (Value, error) {
	switch x.op {
	case "or":
		l, err := ev.eval(x.lhs, ctx)
		if err != nil {
			return nil, err
		}
		if l.Bool() {
			return Bool(true), nil
		}
		r, err := ev.eval(x.rhs, ctx)
		if err != nil {
			return nil, err
		}
		return Bool(r.Bool()), nil
	case "and":
		l, err := ev.eval(x.lhs, ctx)
		if err != nil {
			return nil, err
		}
		if !l.Bool() {
			return Bool(false), nil
		}
		r, err := ev.eval(x.rhs, ctx)
		if err != nil {
			return nil, err
		}
		return Bool(r.Bool()), nil
	}

	l, err := ev.eval(x.lhs, ctx)
	if err != nil {
		return nil, err
	}
	r, err := ev.eval(x.rhs, ctx)
	if err != nil {
		return nil, err
	}

	switch x.op {
	case "=", "!=", "<", "<=", ">", ">=":
		return Bool(compare(x.op, l, r)), nil
	case "+":
		return Number(l.Number() + r.Number()), nil
	case "-":
		return Number(l.Number() - r.Number()), nil
	case "*":
		return Number(l.Number() * r.Number()), nil
	case "div":
		return Number(l.Number() / r.Number()), nil
	case "mod":
		return Number(math.Mod(l.Number(), r.Number())), nil
	default:
		return nil, fmt.Errorf("unknown operator %q", x.op)
	}
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

func (ev *evaluator) evalUnion(x unionExpr, ctx evalPos) (Value, error) {
	var out NodeSet
	seen := map[Node]bool{}
	for _, part := range x.parts {
		v, err := ev.eval(part, ctx)
		if err != nil {
			return nil, err
		}
		ns, ok := v.(NodeSet)
		if !ok {
			return nil, fmt.Errorf("union operand is %T, not a node-set", v)
		}
		for _, n := range ns {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	return out, nil
}

func (ev *evaluator) evalFilter(x filterExpr, ctx evalPos) (Value, error) {
	v, err := ev.eval(x.primary, ctx)
	if err != nil {
		return nil, err
	}
	ns, ok := v.(NodeSet)
	if !ok {
		return nil, fmt.Errorf("predicate applied to %T, not a node-set", v)
	}
	for _, pred := range x.preds {
		ns, err = ev.applyPredicate(ns, pred)
		if err != nil {
			return nil, err
		}
	}
	return ns, nil
}

func (ev *evaluator) evalPath(x pathExpr, ctx evalPos) (Value, error) {
	var current NodeSet
	switch {
	case x.filter != nil:
		v, err := ev.eval(x.filter, ctx)
		if err != nil {
			return nil, err
		}
		ns, ok := v.(NodeSet)
		if !ok {
			return nil, fmt.Errorf("path rooted at %T, not a node-set", v)
		}
		current = ns
	case x.absolute:
		current = NodeSet{{El: ev.docNode()}}
	default:
		current = NodeSet{ctx.node}
	}

	for _, st := range x.steps {
		next, err := ev.applyStep(current, st)
		if err != nil {
			return nil, err
		}
		current = next
	}
	return current, nil
}

func (ev *evaluator) applyStep(input NodeSet, st step) (NodeSet, error) {
	var out NodeSet
	seen := map[Node]bool{}
	for _, ctxNode := range input {
		bases := NodeSet{ctxNode}
		if st.fromDescendant {
			bases = descendantOrSelf(ctxNode)
		}
		for _, base := range bases {
			// text() selects the character data of the step's context
			// node. Text lives on elements in this data model, so the
			// step resolves to the context node itself when it carries
			// text (e.g. /Order/Amount/text() selects the Amount
			// element, whose string-value is its text).
			if st.test.nodeType == "text" {
				st.axis = axisSelf
			}
			cands, err := ev.axisCandidates(base, st)
			if err != nil {
				return nil, err
			}
			// Predicates apply per context node with proximity positions.
			for _, pred := range st.preds {
				cands, err = ev.applyPredicate(cands, pred)
				if err != nil {
					return nil, err
				}
			}
			for _, n := range cands {
				if !seen[n] {
					seen[n] = true
					out = append(out, n)
				}
			}
		}
	}
	return out, nil
}

func descendantOrSelf(n Node) NodeSet {
	if n.IsAttr() {
		return NodeSet{n}
	}
	var out NodeSet
	n.El.Walk(func(e *xmltree.Element) bool {
		out = append(out, Node{El: e})
		return true
	})
	return out
}

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

// axisNodes enumerates the raw candidate nodes of one axis from a base
// node, before any node test is applied.
func (ev *evaluator) axisNodes(base Node, axis axisKind) (NodeSet, error) {
	var raw NodeSet
	switch axis {
	case axisSelf:
		raw = NodeSet{base}
	case axisParent:
		if base.IsAttr() {
			raw = NodeSet{{El: base.El}}
		} else if p := ev.parentOf(base.El); p != nil {
			raw = NodeSet{{El: p}}
		}
	case axisChild:
		if !base.IsAttr() {
			for _, c := range base.El.Children {
				raw = append(raw, Node{El: c})
			}
		}
	case axisAttribute:
		if !base.IsAttr() {
			for i := range base.El.Attrs {
				raw = append(raw, Node{El: base.El, Attr: &base.El.Attrs[i]})
			}
		}
	case axisDescendant:
		if !base.IsAttr() {
			for _, c := range base.El.Children {
				c.Walk(func(e *xmltree.Element) bool {
					raw = append(raw, Node{El: e})
					return true
				})
			}
		}
	case axisDescendantOrSelf:
		raw = descendantOrSelf(base)
	default:
		return nil, fmt.Errorf("unsupported axis %d", axis)
	}
	return raw, nil
}

func (ev *evaluator) axisCandidates(base Node, st step) (NodeSet, error) {
	raw, err := ev.axisNodes(base, st.axis)
	if err != nil {
		return nil, err
	}

	out := raw[:0]
	for _, n := range raw {
		ok, err := ev.matchTest(n, st)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, n)
		}
	}
	return out, nil
}

func (ev *evaluator) matchTest(n Node, st step) (bool, error) {
	t := st.test
	switch t.nodeType {
	case "node":
		return true, nil
	case "text":
		// Approximation for this data model: text lives on elements, so
		// text() matches an element node that carries character data.
		return !n.IsAttr() && n.El.Text != "", nil
	}
	// Name tests. On the attribute axis they match attributes; on the
	// others, elements.
	if st.axis == axisAttribute != n.IsAttr() {
		return false, nil
	}
	name := n.Name()
	if name.Local == "" {
		// The virtual document node never matches a name test.
		return false, nil
	}
	if t.anyName {
		if t.prefix == "" {
			return true, nil
		}
		uri, ok := ev.env.Namespaces[t.prefix]
		if !ok {
			return false, fmt.Errorf("unbound namespace prefix %q", t.prefix)
		}
		return name.Space == uri, nil
	}
	if name.Local != t.local {
		return false, nil
	}
	if t.prefix == "" {
		// Deviation (documented): unprefixed matches any namespace.
		return true, nil
	}
	uri, ok := ev.env.Namespaces[t.prefix]
	if !ok {
		return false, fmt.Errorf("unbound namespace prefix %q", t.prefix)
	}
	return name.Space == uri, nil
}

func (ev *evaluator) applyPredicate(cands NodeSet, pred expr) (NodeSet, error) {
	var out NodeSet
	size := len(cands)
	for i, n := range cands {
		v, err := ev.eval(pred, evalPos{node: n, pos: i + 1, size: size})
		if err != nil {
			return nil, err
		}
		keep := false
		if num, ok := v.(Number); ok {
			keep = float64(i+1) == float64(num)
		} else {
			keep = v.Bool()
		}
		if keep {
			out = append(out, n)
		}
	}
	return out, nil
}

// --- Function library ---

var regexCache sync.Map // pattern string -> *regexp.Regexp

func compileRegex(pattern string) (*regexp.Regexp, error) {
	if re, ok := regexCache.Load(pattern); ok {
		return re.(*regexp.Regexp), nil
	}
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, err
	}
	regexCache.Store(pattern, re)
	return re, nil
}

func (ev *evaluator) evalFunc(x funcExpr, ctx evalPos) (Value, error) {
	args := make([]Value, 0, len(x.args))
	for _, a := range x.args {
		v, err := ev.eval(a, ctx)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	return applyFunc(x.name, args, ctx)
}

// applyFunc applies the XPath function library to already-evaluated
// arguments. Shared by the tree-walking evaluator and compiled Programs
// so both report identical runtime errors.
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
		re, err := compileRegex(args[1].String())
		if err != nil {
			return nil, fmt.Errorf("matches(): %w", err)
		}
		return Bool(re.MatchString(args[0].String())), nil
	default:
		return nil, fmt.Errorf("unknown function %s()", name)
	}
}
