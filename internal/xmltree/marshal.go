package xmltree

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// MarshalString serializes e and returns the result as a string. The
// error is always nil.
func MarshalString(e *Element) (string, error) {
	return marshal(e), nil
}

func marshal(e *Element) string {
	var m marshaler
	m.collect(e)
	m.out.Grow(m.size)
	m.write(e, true)
	return m.out.String()
}

// marshaler appends the whole document to one buffer, sized up front
// by the pass that collects the namespaces.
type marshaler struct {
	out    strings.Builder
	size   int            // upper estimate of the output: exact but for escapes and short prefixes
	spaces []string       // namespace URIs in order of first use; spaces[i] is written "ns<i+1>"
	index  map[string]int // position in spaces, once there are too many to scan
}

// collect registers the namespaces of e's subtree in document order
// and adds its serialized size to m.size.
func (m *marshaler) collect(e *Element) {
	const prefix = len("ns99:")
	m.need(e.Name.Space)
	m.size += 2*(prefix+len(e.Name.Local)) + len("<></>") + len(e.Text)
	for _, a := range e.Attrs {
		m.need(a.Name.Space)
		m.size += prefix + len(a.Name.Local) + len(` =""`) + len(a.Value)
	}
	for _, c := range e.Children {
		m.collect(c)
	}
}

func (m *marshaler) need(space string) {
	if space == "" {
		return
	}
	if _, ok := m.lookup(space); ok {
		return
	}
	m.spaces = append(m.spaces, space)
	switch {
	case m.index != nil:
		m.index[space] = len(m.spaces) - 1
	case len(m.spaces) > 8:
		m.index = make(map[string]int, 2*len(m.spaces))
		for i, s := range m.spaces {
			m.index[s] = i
		}
	}
	m.size += len(` xmlns:ns99=""`) + len(space) // its declaration on the root
}

// lookup scans the few namespaces a message has; a document with many
// gets a map so that a hostile one costs no more than before.
func (m *marshaler) lookup(space string) (int, bool) {
	if m.index != nil {
		i, ok := m.index[space]
		return i, ok
	}
	for i, s := range m.spaces {
		if s == space {
			return i, true
		}
	}
	return 0, false
}

func (m *marshaler) name(n Name) {
	if n.Space != "" {
		i, _ := m.lookup(n.Space)
		m.out.WriteString("ns")
		m.out.WriteString(strconv.Itoa(i + 1))
		m.out.WriteByte(':')
	}
	m.out.WriteString(n.Local)
}

func (m *marshaler) write(e *Element, root bool) {
	m.out.WriteByte('<')
	m.name(e.Name)
	if root {
		for i, uri := range m.spaces {
			m.out.WriteString(" xmlns:ns")
			m.out.WriteString(strconv.Itoa(i + 1))
			m.out.WriteString(`="`)
			m.escape(uri)
			m.out.WriteByte('"')
		}
	}
	for _, a := range e.Attrs {
		m.out.WriteByte(' ')
		m.name(a.Name)
		m.out.WriteString(`="`)
		m.escape(a.Value)
		m.out.WriteByte('"')
	}
	if len(e.Children) == 0 && e.Text == "" {
		m.out.WriteString("/>")
		return
	}
	m.out.WriteByte('>')
	m.escape(e.Text)
	for _, c := range e.Children {
		m.write(c, false)
	}
	m.out.WriteString("</")
	m.name(e.Name)
	m.out.WriteByte('>')
}

// escape writes s as character data or an attribute value, byte for
// byte what encoding/xml.EscapeText writes: the five markup characters
// and tab, newline and carriage return as references, and anything
// that is not a character of XML 1.0 — invalid UTF-8 included — as
// U+FFFD.
func (m *marshaler) escape(s string) {
	last := 0
	for i := 0; i < len(s); {
		esc, width := "", 1
		if b := s[i]; b < utf8.RuneSelf {
			esc = escapes[b]
		} else if r, n := utf8.DecodeRuneInString(s[i:]); !inCharacterRange(r) || r == utf8.RuneError && n == 1 {
			esc, width = "\uFFFD", n
		} else {
			width = n
		}
		if esc != "" {
			m.out.WriteString(s[last:i])
			m.out.WriteString(esc)
			last = i + width
		}
		i += width
	}
	m.out.WriteString(s[last:])
}

// escapes holds the replacement of every ASCII byte that has one.
var escapes = func() (t [utf8.RuneSelf]string) {
	for b := range t {
		if !inCharacterRange(rune(b)) {
			t[b] = "\uFFFD"
		}
	}
	t['"'], t['\''], t['&'], t['<'], t['>'] = "&#34;", "&#39;", "&amp;", "&lt;", "&gt;"
	t['\t'], t['\n'], t['\r'] = "&#x9;", "&#xA;", "&#xD;"
	return t
}()
