package xpath

import (
	"fmt"
	"math"
	"regexp"
	"slices"

	"github.com/masc-project/masc/internal/xmltree"
)

// progFn is one lowered expression node: evaluate against the dynamic
// context and return the value.
type progFn func(ev *evaluator, ctx evalPos) (Value, error)

// lowerer lowers one syntax tree. err keeps the first node it has no
// lowering for, which Compile reports: the parser builds only the
// shapes below, so that is a parser defect, and an expression from a
// policy or a process definition must not turn it into a panic. vars
// collects the variable names the tree references, for Compiled.Vars.
type lowerer struct {
	err  error
	vars []string
}

func (lw *lowerer) fail(err error) progFn {
	if lw.err == nil {
		lw.err = err
	}
	return nil
}

func (lw *lowerer) expr(e expr) progFn {
	switch x := e.(type) {
	case literalExpr:
		v := String(x.s)
		return func(*evaluator, evalPos) (Value, error) { return v, nil }
	case numberExpr:
		v := Number(x.f)
		return func(*evaluator, evalPos) (Value, error) { return v, nil }
	case varExpr:
		name := x.name
		if !slices.Contains(lw.vars, name) {
			lw.vars = append(lw.vars, name)
		}
		return func(ev *evaluator, _ evalPos) (Value, error) {
			v, ok := ev.env.Vars[name]
			if !ok {
				return nil, fmt.Errorf("undefined variable $%s", name)
			}
			return v, nil
		}
	case negExpr:
		operand := lw.expr(x.operand)
		return func(ev *evaluator, ctx evalPos) (Value, error) {
			v, err := operand(ev, ctx)
			if err != nil {
				return nil, err
			}
			return Number(-v.Number()), nil
		}
	case binaryExpr:
		return lw.binary(x)
	case unionExpr:
		return lw.union(x)
	case funcExpr:
		return lw.funcCall(x)
	case filterExpr:
		return lw.filter(x)
	case pathExpr:
		return lw.path(x)
	default:
		return lw.fail(fmt.Errorf("unknown expression node %T", e))
	}
}

func (lw *lowerer) binary(x binaryExpr) progFn {
	lhs := lw.expr(x.lhs)
	rhs := lw.expr(x.rhs)
	switch x.op {
	case "or":
		return func(ev *evaluator, ctx evalPos) (Value, error) {
			l, err := lhs(ev, ctx)
			if err != nil {
				return nil, err
			}
			if l.Bool() {
				return Bool(true), nil
			}
			r, err := rhs(ev, ctx)
			if err != nil {
				return nil, err
			}
			return Bool(r.Bool()), nil
		}
	case "and":
		return func(ev *evaluator, ctx evalPos) (Value, error) {
			l, err := lhs(ev, ctx)
			if err != nil {
				return nil, err
			}
			if !l.Bool() {
				return Bool(false), nil
			}
			r, err := rhs(ev, ctx)
			if err != nil {
				return nil, err
			}
			return Bool(r.Bool()), nil
		}
	case "=", "!=", "<", "<=", ">", ">=":
		op := x.op
		return func(ev *evaluator, ctx evalPos) (Value, error) {
			l, r, err := evalPair(ev, ctx, lhs, rhs)
			if err != nil {
				return nil, err
			}
			return Bool(compare(op, l, r)), nil
		}
	case "+":
		return func(ev *evaluator, ctx evalPos) (Value, error) {
			l, r, err := evalPair(ev, ctx, lhs, rhs)
			if err != nil {
				return nil, err
			}
			return Number(l.Number() + r.Number()), nil
		}
	case "-":
		return func(ev *evaluator, ctx evalPos) (Value, error) {
			l, r, err := evalPair(ev, ctx, lhs, rhs)
			if err != nil {
				return nil, err
			}
			return Number(l.Number() - r.Number()), nil
		}
	case "*":
		return func(ev *evaluator, ctx evalPos) (Value, error) {
			l, r, err := evalPair(ev, ctx, lhs, rhs)
			if err != nil {
				return nil, err
			}
			return Number(l.Number() * r.Number()), nil
		}
	case "div":
		return func(ev *evaluator, ctx evalPos) (Value, error) {
			l, r, err := evalPair(ev, ctx, lhs, rhs)
			if err != nil {
				return nil, err
			}
			return Number(l.Number() / r.Number()), nil
		}
	case "mod":
		return func(ev *evaluator, ctx evalPos) (Value, error) {
			l, r, err := evalPair(ev, ctx, lhs, rhs)
			if err != nil {
				return nil, err
			}
			return Number(math.Mod(l.Number(), r.Number())), nil
		}
	default:
		return lw.fail(fmt.Errorf("unknown operator %q", x.op))
	}
}

func evalPair(ev *evaluator, ctx evalPos, lhs, rhs progFn) (Value, Value, error) {
	l, err := lhs(ev, ctx)
	if err != nil {
		return nil, nil, err
	}
	r, err := rhs(ev, ctx)
	if err != nil {
		return nil, nil, err
	}
	return l, r, nil
}

func (lw *lowerer) union(x unionExpr) progFn {
	parts := make([]progFn, len(x.parts))
	for i, p := range x.parts {
		parts[i] = lw.expr(p)
	}
	return func(ev *evaluator, ctx evalPos) (Value, error) {
		var out NodeSet
		seen := map[Node]bool{}
		for _, part := range parts {
			v, err := part(ev, ctx)
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
}

func (lw *lowerer) funcCall(x funcExpr) progFn {
	name := x.name
	args := make([]progFn, len(x.args))
	for i, a := range x.args {
		args[i] = lw.expr(a)
	}
	if name == "matches" && len(args) == 2 {
		if pattern, ok := x.args[1].(literalExpr); ok {
			return lowerMatches(args[0], pattern.s)
		}
	}
	return func(ev *evaluator, ctx evalPos) (Value, error) {
		vals := make([]Value, len(args))
		for i, a := range args {
			v, err := a(ev, ctx)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return applyFunc(name, vals, ctx)
	}
}

// lowerMatches lowers matches() with a literal pattern, compiling the
// pattern once. A pattern that does not compile fails each evaluation,
// after the subject, with the error a computed pattern gives.
func lowerMatches(subject progFn, pattern string) progFn {
	re, reErr := regexp.Compile(pattern)
	return func(ev *evaluator, ctx evalPos) (Value, error) {
		s, err := subject(ev, ctx)
		if err != nil {
			return nil, err
		}
		if reErr != nil {
			return nil, fmt.Errorf("matches(): %w", reErr)
		}
		return Bool(re.MatchString(s.String())), nil
	}
}

func (lw *lowerer) filter(x filterExpr) progFn {
	primary := lw.expr(x.primary)
	preds := lw.preds(x.preds)
	return func(ev *evaluator, ctx evalPos) (Value, error) {
		v, err := primary(ev, ctx)
		if err != nil {
			return nil, err
		}
		ns, ok := v.(NodeSet)
		if !ok {
			return nil, fmt.Errorf("predicate applied to %T, not a node-set", v)
		}
		for _, pred := range preds {
			ns, err = applyPredicateProg(ev, ns, pred)
			if err != nil {
				return nil, err
			}
		}
		return ns, nil
	}
}

// matchFn is a lowered node test: does node n pass this step's test?
type matchFn func(ev *evaluator, n Node) (bool, error)

// loweredStep is one location step with its axis resolved (including the
// text()-selects-self rewrite), its node test lowered to a matcher, and
// its predicates lowered to programs.
type loweredStep struct {
	axis           axisKind
	fromDescendant bool
	// overlaps is set for a // step on the parent, descendant or
	// descendant-or-self axis: the axes of its bases then share nodes,
	// so one node can be reached twice.
	overlaps bool
	match    matchFn
	preds    []progFn
}

func (lw *lowerer) path(x pathExpr) progFn {
	var filter progFn
	if x.filter != nil {
		filter = lw.expr(x.filter)
	}
	absolute := x.absolute
	steps := make([]loweredStep, len(x.steps))
	for i, st := range x.steps {
		steps[i] = lw.step(st)
	}
	return func(ev *evaluator, ctx evalPos) (Value, error) {
		var current NodeSet
		switch {
		case filter != nil:
			v, err := filter(ev, ctx)
			if err != nil {
				return nil, err
			}
			ns, ok := v.(NodeSet)
			if !ok {
				return nil, fmt.Errorf("path rooted at %T, not a node-set", v)
			}
			current = ns
		case absolute:
			current = NodeSet{{El: ev.docNode()}}
		default:
			current = NodeSet{ctx.node}
		}
		for i := range steps {
			next, err := applyLoweredStep(ev, current, &steps[i])
			if err != nil {
				return nil, err
			}
			current = next
		}
		return current, nil
	}
}

func (lw *lowerer) step(st step) loweredStep {
	axis := st.axis
	// text() selects the character data of the step's context node.
	// Text lives on elements in this data model, so the step resolves to
	// the context node itself when it carries text (/Order/Amount/text()
	// selects the Amount element, whose string-value is its text).
	if st.test.nodeType == "text" {
		axis = axisSelf
	}
	overlapping := axis == axisParent || axis == axisDescendant || axis == axisDescendantOrSelf
	return loweredStep{
		axis:           axis,
		fromDescendant: st.fromDescendant,
		overlaps:       st.fromDescendant && overlapping,
		match:          lowerTest(axis, st.test),
		preds:          lw.preds(st.preds),
	}
}

func (lw *lowerer) preds(preds []expr) []progFn {
	if len(preds) == 0 {
		return nil
	}
	out := make([]progFn, len(preds))
	for i, p := range preds {
		out[i] = lw.expr(p)
	}
	return out
}

// lowerTest lowers a node test against its (rewritten) axis into a
// matcher closure. Name tests match attributes on the attribute axis
// and elements on the others.
func lowerTest(axis axisKind, t nodeTest) matchFn {
	switch t.nodeType {
	case "node":
		return func(*evaluator, Node) (bool, error) { return true, nil }
	case "text":
		return func(_ *evaluator, n Node) (bool, error) {
			return !n.IsAttr() && n.El.Text != "", nil
		}
	}
	wantAttr := axis == axisAttribute
	prefix := t.prefix
	local := t.local
	anyName := t.anyName
	return func(ev *evaluator, n Node) (bool, error) {
		if wantAttr != n.IsAttr() {
			return false, nil
		}
		name := n.Name()
		if name.Local == "" {
			// The virtual document node never matches a name test.
			return false, nil
		}
		if anyName {
			if prefix == "" {
				return true, nil
			}
			uri, ok := ev.env.Namespaces[prefix]
			if !ok {
				return false, fmt.Errorf("unbound namespace prefix %q", prefix)
			}
			return name.Space == uri, nil
		}
		if name.Local != local {
			return false, nil
		}
		if prefix == "" {
			// Deviation (documented): unprefixed matches any namespace.
			return true, nil
		}
		uri, ok := ev.env.Namespaces[prefix]
		if !ok {
			return false, fmt.Errorf("unbound namespace prefix %q", prefix)
		}
		return name.Space == uri, nil
	}
}

// applyLoweredStep runs one step over its input. It walks each axis in
// place and appends what passes the test straight to the result; only
// a step with predicates gathers one base's matches first, because
// proximity positions count within a base. Duplicates are checked for
// only where they can arise: from several input nodes, or when a //
// prefix feeds an axis on which neighbouring bases overlap.
func applyLoweredStep(ev *evaluator, input NodeSet, st *loweredStep) (NodeSet, error) {
	s := stepper{ev: ev, st: st}
	if len(input) > 1 || st.overlaps {
		s.seen = map[Node]bool{}
	}
	for _, ctxNode := range input {
		var err error
		if st.fromDescendant && !ctxNode.IsAttr() {
			err = s.fromSubtree(ctxNode.El)
		} else {
			err = s.from(ctxNode)
		}
		if err != nil {
			return nil, err
		}
	}
	return s.out, nil
}

// stepper is the state of one applyLoweredStep.
type stepper struct {
	ev    *evaluator
	st    *loweredStep
	out   NodeSet
	cands NodeSet       // one base's matches, for a step with predicates
	seen  map[Node]bool // nil where the step cannot select a node twice
}

// fromSubtree runs the step from e and from each of its descendants,
// in document order: the bases of a // step.
func (s *stepper) fromSubtree(e *xmltree.Element) error {
	if err := s.from(Node{El: e}); err != nil {
		return err
	}
	for _, c := range e.Children {
		if err := s.fromSubtree(c); err != nil {
			return err
		}
	}
	return nil
}

// from runs the step from one base node.
func (s *stepper) from(base Node) error {
	if s.st.preds == nil {
		return s.axis(base)
	}
	s.cands = s.cands[:0]
	if err := s.axis(base); err != nil {
		return err
	}
	cands := s.cands
	for _, pred := range s.st.preds {
		var err error
		if cands, err = applyPredicateProg(s.ev, cands, pred); err != nil {
			return err
		}
	}
	for _, n := range cands {
		s.emit(n)
	}
	return nil
}

// axis enumerates the step's axis from base, in document order, and
// hands each node to take.
func (s *stepper) axis(base Node) error {
	switch s.st.axis {
	case axisSelf:
		return s.take(base)
	case axisParent:
		if base.IsAttr() {
			return s.take(Node{El: base.El})
		}
		if p := s.ev.parentOf(base.El); p != nil {
			return s.take(Node{El: p})
		}
	case axisChild:
		if !base.IsAttr() {
			for _, c := range base.El.Children {
				if err := s.take(Node{El: c}); err != nil {
					return err
				}
			}
		}
	case axisAttribute:
		if !base.IsAttr() {
			for i := range base.El.Attrs {
				if err := s.take(Node{El: base.El, Attr: &base.El.Attrs[i]}); err != nil {
					return err
				}
			}
		}
	case axisDescendant:
		if !base.IsAttr() {
			for _, c := range base.El.Children {
				if err := s.takeSubtree(c); err != nil {
					return err
				}
			}
		}
	case axisDescendantOrSelf:
		if base.IsAttr() {
			return s.take(base)
		}
		return s.takeSubtree(base.El)
	default:
		return fmt.Errorf("unsupported axis %d", s.st.axis)
	}
	return nil
}

// takeSubtree hands e and its descendants to take, in document order.
func (s *stepper) takeSubtree(e *xmltree.Element) error {
	if err := s.take(Node{El: e}); err != nil {
		return err
	}
	for _, c := range e.Children {
		if err := s.takeSubtree(c); err != nil {
			return err
		}
	}
	return nil
}

// take applies the node test to one axis node and keeps a match: as a
// candidate when predicates are still to run, otherwise in the result.
func (s *stepper) take(n Node) error {
	ok, err := s.st.match(s.ev, n)
	if err != nil || !ok {
		return err
	}
	if s.st.preds != nil {
		s.cands = append(s.cands, n)
	} else {
		s.emit(n)
	}
	return nil
}

// emit appends n to the step's result, unless the step has already
// selected it.
func (s *stepper) emit(n Node) {
	if s.seen != nil {
		if s.seen[n] {
			return
		}
		s.seen[n] = true
	}
	s.out = append(s.out, n)
}

func applyPredicateProg(ev *evaluator, cands NodeSet, pred progFn) (NodeSet, error) {
	var out NodeSet
	size := len(cands)
	for i, n := range cands {
		v, err := pred(ev, evalPos{node: n, pos: i + 1, size: size})
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
