package xmltree

import (
	"fmt"
	"io"
)

// Test-only helpers: no shipped binary calls these, so they live
// with the tests that do.

// InsertAt inserts child at position i (0 <= i <= len(Children)).
func (e *Element) InsertAt(i int, child *Element) error {
	if i < 0 || i > len(e.Children) {
		return fmt.Errorf("xmltree: insert index %d out of range [0,%d]", i, len(e.Children))
	}
	child.parent = e
	e.Children = append(e.Children, nil)
	copy(e.Children[i+1:], e.Children[i:])
	e.Children[i] = child
	return nil
}

// ReplaceChild swaps the first child pointer-equal to old with repl and
// reports whether old was found.
func (e *Element) ReplaceChild(old, repl *Element) bool {
	for i, ch := range e.Children {
		if ch == old {
			repl.parent = e
			e.Children[i] = repl
			old.parent = nil
			return true
		}
	}
	return false
}

// Path descends through a chain of local names (any namespace) and
// returns the final element, or nil when any hop is missing.
func (e *Element) Path(locals ...string) *Element {
	cur := e
	for _, l := range locals {
		cur = cur.Child("", l)
		if cur == nil {
			return nil
		}
	}
	return cur
}

// Find returns the first descendant (not including e) for which pred
// returns true, or nil.
func (e *Element) Find(pred func(*Element) bool) *Element {
	var found *Element
	for _, c := range e.Children {
		c.Walk(func(n *Element) bool {
			if found != nil {
				return false
			}
			if pred(n) {
				found = n
				return false
			}
			return true
		})
		if found != nil {
			break
		}
	}
	return found
}

// FindAll returns every descendant (not including e) matching pred, in
// document order.
func (e *Element) FindAll(pred func(*Element) bool) []*Element {
	var out []*Element
	for _, c := range e.Children {
		c.Walk(func(n *Element) bool {
			if pred(n) {
				out = append(out, n)
			}
			return true
		})
	}
	return out
}

// Marshal serializes the subtree rooted at e as a standalone XML
// document fragment. Namespace prefixes are generated deterministically
// (document order of first use) and declared on the root element.
func Marshal(w io.Writer, e *Element) error {
	_, err := io.WriteString(w, marshal(e))
	return err
}
