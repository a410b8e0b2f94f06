package workflow

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/masc-project/masc/internal/xmltree"
)

// ActivityToXML serializes an activity subtree back into the process-
// definition vocabulary, the inverse of ParseActivity. Round-tripping
// preserves structure, conditions (source text), endpoints, timeouts,
// and assignments.
func ActivityToXML(a Activity) *xmltree.Element {
	switch t := a.(type) {
	case *Sequence:
		e := xmltree.New(Namespace, "sequence")
		e.SetAttr("", "name", t.name)
		for _, c := range t.children {
			e.Append(ActivityToXML(c))
		}
		return e
	case *Parallel:
		e := xmltree.New(Namespace, "parallel")
		e.SetAttr("", "name", t.name)
		for _, b := range t.branches {
			e.Append(ActivityToXML(b))
		}
		return e
	case *If:
		e := xmltree.New(Namespace, "if")
		e.SetAttr("", "name", t.name)
		e.SetAttr("", "test", t.cond.Source())
		then := xmltree.New(Namespace, "then")
		then.Append(ActivityToXML(t.then))
		e.Append(then)
		if t.els != nil {
			els := xmltree.New(Namespace, "else")
			els.Append(ActivityToXML(t.els))
			e.Append(els)
		}
		return e
	case *While:
		e := xmltree.New(Namespace, "while")
		e.SetAttr("", "name", t.name)
		e.SetAttr("", "test", t.cond.Source())
		e.Append(ActivityToXML(t.body))
		return e
	case *Invoke:
		e := xmltree.New(Namespace, "invoke")
		e.SetAttr("", "name", t.name)
		if t.endpoint != "" {
			e.SetAttr("", "endpoint", t.endpoint)
		}
		if t.serviceType != "" {
			e.SetAttr("", "serviceType", t.serviceType)
		}
		e.SetAttr("", "operation", t.operation)
		if t.inputVar != "" {
			e.SetAttr("", "input", t.inputVar)
		}
		if t.outputVar != "" {
			e.SetAttr("", "output", t.outputVar)
		}
		e.SetAttr("", "timeout", t.Timeout().String())
		if t.inputLit != nil {
			in := xmltree.New(Namespace, "input")
			in.Append(t.inputLit.Copy())
			e.Append(in)
		}
		return e
	case *Assign:
		e := xmltree.New(Namespace, "assign")
		e.SetAttr("", "name", t.name)
		for _, as := range t.assignments {
			if as.Literal != nil {
				set := xmltree.New(Namespace, "set")
				set.SetAttr("", "to", as.To)
				set.Append(as.Literal.Copy())
				e.Append(set)
				continue
			}
			cp := xmltree.New(Namespace, "copy")
			cp.SetAttr("", "to", as.To)
			cp.SetAttr("", "from", as.From.Source())
			e.Append(cp)
		}
		return e
	case *Delay:
		e := xmltree.New(Namespace, "delay")
		e.SetAttr("", "name", t.name)
		e.SetAttr("", "duration", t.duration.String())
		return e
	case *Scope:
		e := xmltree.New(Namespace, "scope")
		e.SetAttr("", "name", t.name)
		body := xmltree.New(Namespace, "body")
		body.Append(ActivityToXML(t.body))
		e.Append(body)
		if t.catch != nil {
			catch := xmltree.New(Namespace, "catch")
			catch.SetAttr("", "faultVariable", t.faultVariable)
			catch.Append(ActivityToXML(t.catch))
			e.Append(catch)
		}
		return e
	case *Terminate:
		e := xmltree.New(Namespace, "terminate")
		e.SetAttr("", "name", t.name)
		return e
	case *NoOp:
		e := xmltree.New(Namespace, "noop")
		e.SetAttr("", "name", t.name)
		return e
	default:
		// Unknown activity kinds cannot occur: the type switch covers
		// every constructor this package exports.
		e := xmltree.New(Namespace, "noop")
		e.SetAttr("", "name", a.Name())
		return e
	}
}

func (in *Instance) snapshotLocked() *xmltree.Element {
	root := xmltree.New(Namespace, "instanceSnapshot")
	root.SetAttr("", "id", in.id)
	root.SetAttr("", "definition", in.defName)
	root.SetAttr("", "adaptationState", in.adaptState)
	root.SetAttr("", "state", in.state.String())

	tree := xmltree.New(Namespace, "tree")
	tree.Append(ActivityToXML(in.root))
	root.Append(tree)

	done := xmltree.New(Namespace, "completed")
	for name := range in.done {
		e := xmltree.New(Namespace, "activity")
		e.SetAttr("", "name", name)
		done.Append(e)
	}
	root.Append(done)

	vars := xmltree.New(Namespace, "variables")
	for name, val := range in.vars {
		if val == nil {
			continue
		}
		ve := xmltree.New(Namespace, "variable")
		ve.SetAttr("", "name", name)
		ve.Append(val.Copy())
		vars.Append(ve)
	}
	root.Append(vars)
	return root
}

// Restore rebuilds a suspended instance from a snapshot. The restored
// instance gets a fresh ID unless the snapshot's ID is still free; it
// resumes from the snapshot's completion marks when Run is called
// (after Resume).
func (e *Engine) Restore(snapshot *xmltree.Element) (*Instance, error) {
	if snapshot.Name.Local != "instanceSnapshot" {
		return nil, fmt.Errorf("workflow: restore: root element is %q", snapshot.Name.Local)
	}
	defName := snapshot.AttrValue("", "definition")
	treeWrap := snapshot.Child("", "tree")
	if treeWrap == nil || len(treeWrap.Children) != 1 {
		return nil, fmt.Errorf("workflow: restore: snapshot lacks tree")
	}
	root, err := ParseActivity(treeWrap.Children[0])
	if err != nil {
		return nil, fmt.Errorf("workflow: restore tree: %w", err)
	}
	if err := checkUniqueNames(root); err != nil {
		return nil, err
	}

	id := snapshot.AttrValue("", "id")
	e.mu.Lock()
	if _, taken := e.instances[id]; taken || id == "" {
		e.mu.Unlock()
		id = "proc-" + strconv.FormatUint(e.instSeq.Add(1), 10) + "r"
		e.mu.Lock()
	}
	e.mu.Unlock()
	e.reserveInstanceID(id)

	def := &Definition{name: defName, root: root}
	inst := newInstance(e, id, def, nil)
	inst.adaptState = snapshot.AttrValue("", "adaptationState")
	// Restored instances start suspended: they hold at the first
	// activity boundary until an explicit Resume releases them.
	inst.control = controlSuspend
	inst.state = StateSuspended

	if done := snapshot.Child("", "completed"); done != nil {
		for _, a := range done.ChildrenNamed("", "activity") {
			inst.done[a.AttrValue("", "name")] = true
		}
	}
	if vars := snapshot.Child("", "variables"); vars != nil {
		for _, v := range vars.ChildrenNamed("", "variable") {
			if len(v.Children) == 1 {
				inst.vars[v.AttrValue("", "name")] = v.Children[0].Copy()
			}
		}
	}

	e.mu.Lock()
	e.instances[id] = inst
	e.mu.Unlock()
	return inst, nil
}

// reserveInstanceID advances the engine's ID sequence past an
// engine-generated ID seen in durable state, so instances created
// after recovery cannot collide with recovered ones — or overwrite
// the terminal records kept as the audit trail.
func (e *Engine) reserveInstanceID(id string) {
	if n, ok := numericIDSuffix(id); ok {
		for {
			cur := e.instSeq.Load()
			if cur >= n || e.instSeq.CompareAndSwap(cur, n) {
				break
			}
		}
	}
}

// numericIDSuffix extracts the numeric part of an engine-generated
// instance ID ("proc-17" or "proc-17r" → 17).
func numericIDSuffix(id string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, "proc-")
	if !ok {
		return 0, false
	}
	end := 0
	for end < len(rest) && rest[end] >= '0' && rest[end] <= '9' {
		end++
	}
	if end == 0 {
		return 0, false
	}
	n, err := strconv.ParseUint(rest[:end], 10, 64)
	return n, err == nil
}
