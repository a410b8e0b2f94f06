package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Marshal serializes the subtree rooted at e as a standalone XML
// document fragment. Namespace prefixes are generated deterministically
// (document order of first use) and declared on the root element.
func Marshal(w io.Writer, e *Element) error {
	m := &marshaler{prefixes: map[string]string{}}
	m.collect(e)
	return m.write(w, e, true)
}

// MarshalString serializes e and returns the result as a string.
func MarshalString(e *Element) (string, error) {
	var sb strings.Builder
	if err := Marshal(&sb, e); err != nil {
		return "", err
	}
	return sb.String(), nil
}

type marshaler struct {
	prefixes map[string]string // namespace URI -> prefix
	order    []string          // URIs in order of first use
}

func (m *marshaler) collect(e *Element) {
	m.need(e.Name.Space)
	for _, a := range e.Attrs {
		m.need(a.Name.Space)
	}
	for _, c := range e.Children {
		m.collect(c)
	}
}

func (m *marshaler) need(space string) {
	if space == "" {
		return
	}
	if _, ok := m.prefixes[space]; ok {
		return
	}
	m.prefixes[space] = "ns" + strconv.Itoa(len(m.order)+1)
	m.order = append(m.order, space)
}

func (m *marshaler) qname(n Name) string {
	if n.Space == "" {
		return n.Local
	}
	return m.prefixes[n.Space] + ":" + n.Local
}

func (m *marshaler) write(w io.Writer, e *Element, root bool) error {
	if _, err := fmt.Fprintf(w, "<%s", m.qname(e.Name)); err != nil {
		return err
	}
	if root {
		for _, uri := range m.order {
			if _, err := fmt.Fprintf(w, ` xmlns:%s="%s"`, m.prefixes[uri], escapeAttr(uri)); err != nil {
				return err
			}
		}
	}
	for _, a := range e.Attrs {
		if _, err := fmt.Fprintf(w, ` %s="%s"`, m.qname(a.Name), escapeAttr(a.Value)); err != nil {
			return err
		}
	}
	if len(e.Children) == 0 && e.Text == "" {
		_, err := io.WriteString(w, "/>")
		return err
	}
	if _, err := io.WriteString(w, ">"); err != nil {
		return err
	}
	if e.Text != "" {
		if err := escapeText(w, e.Text); err != nil {
			return err
		}
	}
	for _, c := range e.Children {
		if err := m.write(w, c, false); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "</%s>", m.qname(e.Name))
	return err
}

func escapeAttr(s string) string {
	var sb strings.Builder
	if err := xml.EscapeText(&sb, []byte(s)); err != nil {
		return s
	}
	return sb.String()
}

func escapeText(w io.Writer, s string) error {
	return xml.EscapeText(w, []byte(s))
}
