package xpath

import (
	"fmt"
	"math"

	"github.com/masc-project/masc/internal/xmltree"
)

// The tree-walking evaluator below is the reference that tests hold
// the lowered program to (TestProgramEquivalence*,
// FuzzProgramEquivalence, TestEnvelopeViewMatchesCopy). It walks the
// syntax tree at every evaluation and lists each axis before filtering
// it: slow, but with no lowering and no streaming to get wrong. It
// shares the parser, compare, parentOf and applyFunc with production.

// oracleEval evaluates c's source by walking its syntax tree.
func oracleEval(c *Compiled, root *xmltree.Element, env Context) (Value, error) {
	e, err := newParser(c.Source()).parseExpr()
	if err != nil {
		return nil, err
	}
	ev := &evaluator{env: env, root: root}
	return ev.eval(e, evalPos{node: Node{El: root}, pos: 1, size: 1})
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
