package soap

import (
	"github.com/masc-project/masc/internal/xmltree"
)

// Test-only helpers: no shipped binary calls these, so they live
// with the tests that do.

// IsServerFault reports whether the fault is a Server (retriable) fault.
func (f *Fault) IsServerFault() bool { return f.Code == FaultServer }

// RemoveHeader deletes header blocks with the given expanded name and
// reports whether any were removed.
func (e *Envelope) RemoveHeader(space, local string) bool {
	removed := false
	kept := e.Headers[:0]
	for _, h := range e.Headers {
		if h.Name.Space == space && h.Name.Local == local {
			removed = true
			continue
		}
		kept = append(kept, h)
	}
	e.Headers = kept
	return removed
}

// FromXML converts a parsed document into an Envelope. The envelope
// holds copies — the document is copied once, in Copy's three slabs,
// and the copy is taken apart; root is left as it was.
func FromXML(root *xmltree.Element) (*Envelope, error) {
	return adopt(root.Copy())
}
