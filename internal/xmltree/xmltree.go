// Package xmltree provides a namespace-aware, mutable XML element tree.
//
// It is the in-memory representation for every XML document the
// middleware touches: SOAP envelopes and payloads, WSDL contracts,
// WS-Policy4MASC policy documents, and workflow process definitions.
// The XPath engine (internal/xpath) evaluates against this tree, and the
// wsBus message-adaptation modules transform it in place.
package xmltree

import (
	"sort"
	"strings"
)

// Name identifies an element or attribute by namespace URI and local name.
type Name struct {
	Space string // namespace URI; empty means no namespace
	Local string
}

// String renders a Name as {space}local or just local.
func (n Name) String() string {
	if n.Space == "" {
		return n.Local
	}
	return "{" + n.Space + "}" + n.Local
}

// Attr is a single attribute on an element.
type Attr struct {
	Name  Name
	Value string
}

// Element is a node in the tree. Children holds child elements in
// document order; character data interleaved with children is collected
// into Text (concatenated), which is sufficient for the data-oriented
// documents (SOAP, WSDL, policies) this middleware processes.
type Element struct {
	Name     Name
	Attrs    []Attr
	Children []*Element
	Text     string

	parent *Element
}

// New constructs an element with the given namespace and local name.
func New(space, local string) *Element {
	return &Element{Name: Name{Space: space, Local: local}}
}

// NewText constructs a leaf element holding character data.
func NewText(space, local, text string) *Element {
	e := New(space, local)
	e.Text = text
	return e
}

// Parent returns the element's parent, or nil at the root.
func (e *Element) Parent() *Element { return e.parent }

// Append adds child as the last child of e and reparents it.
func (e *Element) Append(child *Element) *Element {
	child.parent = e
	e.Children = append(e.Children, child)
	return e
}

// RemoveChild removes the first child identical (pointer-equal) to c and
// reports whether it was found.
func (e *Element) RemoveChild(c *Element) bool {
	for i, ch := range e.Children {
		if ch == c {
			e.Children = append(e.Children[:i], e.Children[i+1:]...)
			c.parent = nil
			return true
		}
	}
	return false
}

// TakeChildren removes all children from e and returns them, each with
// no parent: the caller now owns them as roots of their own.
func (e *Element) TakeChildren() []*Element {
	taken := e.Children
	e.Children = nil
	for _, c := range taken {
		c.parent = nil
	}
	return taken
}

// SetAttr sets (or overwrites) an attribute.
func (e *Element) SetAttr(space, local, value string) *Element {
	for i := range e.Attrs {
		if e.Attrs[i].Name.Space == space && e.Attrs[i].Name.Local == local {
			e.Attrs[i].Value = value
			return e
		}
	}
	e.Attrs = append(e.Attrs, Attr{Name: Name{Space: space, Local: local}, Value: value})
	return e
}

// Attr returns the value of the named attribute and whether it exists.
// An empty space matches only attributes with no namespace.
func (e *Element) Attr(space, local string) (string, bool) {
	for _, a := range e.Attrs {
		if a.Name.Space == space && a.Name.Local == local {
			return a.Value, true
		}
	}
	return "", false
}

// AttrValue returns the attribute value or "" when absent.
func (e *Element) AttrValue(space, local string) string {
	v, _ := e.Attr(space, local)
	return v
}

// Child returns the first child element with the given name, or nil.
// An empty space matches any namespace.
func (e *Element) Child(space, local string) *Element {
	for _, c := range e.Children {
		if c.Name.Local == local && (space == "" || c.Name.Space == space) {
			return c
		}
	}
	return nil
}

// ChildrenNamed returns all child elements with the given name. An empty
// space matches any namespace.
func (e *Element) ChildrenNamed(space, local string) []*Element {
	var out []*Element
	for _, c := range e.Children {
		if c.Name.Local == local && (space == "" || c.Name.Space == space) {
			out = append(out, c)
		}
	}
	return out
}

// ChildText returns the text of the first matching child, or "".
func (e *Element) ChildText(space, local string) string {
	if c := e.Child(space, local); c != nil {
		return c.Text
	}
	return ""
}

// Copy returns a deep copy of the subtree rooted at e. The copy's parent
// is nil.
//
// The copy is made of three allocations — its elements, their child
// pointers and their attributes — so any part of it that stays
// reachable keeps all of it alive. Callers keep or drop copies whole
// (a cloned envelope, a stored message); one that detaches a small
// piece of a large copy to keep it for long should Copy that piece.
func (e *Element) Copy() *Element {
	var n treeSize
	n.add(e)
	c := copier{els: make([]Element, n.els)}
	if n.kids > 0 {
		c.kids = make([]*Element, n.kids)
	}
	if n.attrs > 0 {
		c.attrs = make([]Attr, n.attrs)
	}
	return c.copy(e, nil)
}

type treeSize struct{ els, kids, attrs int }

func (n *treeSize) add(e *Element) {
	n.els++
	n.kids += len(e.Children)
	n.attrs += len(e.Attrs)
	for _, c := range e.Children {
		n.add(c)
	}
}

// copier hands out the unused rest of each slab.
type copier struct {
	els   []Element
	kids  []*Element
	attrs []Attr
}

func (c *copier) copy(e, parent *Element) *Element {
	cp := &c.els[0]
	c.els = c.els[1:]
	cp.Name, cp.Text, cp.parent = e.Name, e.Text, parent
	// Capacities stop at the lengths so that an append to one element's
	// slice reallocates instead of writing into its neighbour's.
	if n := len(e.Attrs); n > 0 {
		cp.Attrs, c.attrs = c.attrs[:n:n], c.attrs[n:]
		copy(cp.Attrs, e.Attrs)
	}
	if n := len(e.Children); n > 0 {
		cp.Children, c.kids = c.kids[:n:n], c.kids[n:]
		for i, child := range e.Children {
			cp.Children[i] = c.copy(child, cp)
		}
	}
	return cp
}

// Walk visits e and every descendant in document order. Returning false
// from fn prunes the walk below that element.
func (e *Element) Walk(fn func(*Element) bool) {
	if !fn(e) {
		return
	}
	for _, c := range e.Children {
		c.Walk(fn)
	}
}

// DeepText concatenates the text content of e and all descendants in
// document order, matching the XPath string-value of an element node.
func (e *Element) DeepText() string {
	var sb strings.Builder
	e.Walk(func(n *Element) bool {
		sb.WriteString(n.Text)
		return true
	})
	return sb.String()
}

// Equal reports deep structural equality of two subtrees: names, text,
// attribute sets (order-insensitive), and children (order-sensitive).
func Equal(a, b *Element) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Name != b.Name || a.Text != b.Text || len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	aa := append([]Attr(nil), a.Attrs...)
	ba := append([]Attr(nil), b.Attrs...)
	less := func(s []Attr) func(i, j int) bool {
		return func(i, j int) bool {
			if s[i].Name.Space != s[j].Name.Space {
				return s[i].Name.Space < s[j].Name.Space
			}
			return s[i].Name.Local < s[j].Name.Local
		}
	}
	sort.Slice(aa, less(aa))
	sort.Slice(ba, less(ba))
	for i := range aa {
		if aa[i] != ba[i] {
			return false
		}
	}
	for i := range a.Children {
		if !Equal(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}
