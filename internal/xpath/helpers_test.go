package xpath

import (
	"fmt"

	"github.com/masc-project/masc/internal/xmltree"
)

// Test-only helpers: no shipped binary calls these, so they live
// with the tests that do.

// Eval evaluates the expression with root as both the context node and
// the document root, using an empty Context.
func (c *Compiled) Eval(root *xmltree.Element) (Value, error) {
	return c.EvalContext(root, Context{})
}

// EvalString is a convenience wrapper returning the string value.
func (c *Compiled) EvalString(root *xmltree.Element, env Context) (string, error) {
	v, err := c.EvalContext(root, env)
	if err != nil {
		return "", err
	}
	return v.String(), nil
}

// EvalNumber is a convenience wrapper returning the numeric value.
func (c *Compiled) EvalNumber(root *xmltree.Element, env Context) (float64, error) {
	v, err := c.EvalContext(root, env)
	if err != nil {
		return 0, err
	}
	return v.Number(), nil
}

// EvalNodes evaluates and returns the node-set result, or an error if
// the expression does not yield a node-set.
func (c *Compiled) EvalNodes(root *xmltree.Element, env Context) (NodeSet, error) {
	v, err := c.EvalContext(root, env)
	if err != nil {
		return nil, err
	}
	ns, ok := v.(NodeSet)
	if !ok {
		return nil, fmt.Errorf("xpath: %q evaluates to %T, not a node-set", c.src, v)
	}
	return ns, nil
}
