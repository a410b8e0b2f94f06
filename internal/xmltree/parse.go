package xmltree

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Parse reads one XML document from r and returns its root element.
func Parse(r io.Reader) (*Element, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("xmltree: parse: %w", err)
	}
	return ParseString(string(b))
}

// ParseString parses one XML document held in s and returns its root
// element. The tree owns every string it holds — names and namespace
// URIs are interned once per document, text and attribute values are
// copied out — so retaining any part of it never retains s.
//
// The scanner accepts and rejects exactly the documents encoding/xml's
// strict Decoder does (the reference loop lives in oracle_test.go and
// every input of the differential tests is run through both): balanced
// tags, quoted attributes, the five predefined entities and numeric
// references only, valid UTF-8 within the XML character range, no
// "]]>" in text nor "--" in comments, XML 1.0 in UTF-8. Comments,
// processing instructions and directives are skipped; character data
// outside the root is checked and dropped; an undeclared prefix stays
// as written in Name.Space. An element's Text is its own character
// data, CDATA included, concatenated and trimmed.
func ParseString(s string) (*Element, error) {
	return newParser(s).document()
}

func newParser(s string) *parser {
	// A 330 B message has a dozen elements; a chunk of 64 would be a
	// fifth of everything the gateway allocates for it.
	p := &parser{s: s, chunk: max(4, min(len(s)/40, 64))}
	p.open, p.ns, p.attrs = p.openBuf[:0], p.nsBuf[:0], p.attrBuf[:0]
	return p
}

func (p *parser) document() (*Element, error) {
	for p.pos < len(p.s) {
		if err := p.token(); err != nil {
			return nil, err
		}
	}
	if p.root == nil {
		return nil, errors.New("xmltree: empty document")
	}
	if n := len(p.open); n > 0 {
		return nil, fmt.Errorf("xmltree: unexpected EOF inside element %s", p.open[n-1].el.Name.Local)
	}
	return p.root, nil
}

// MustParseString parses s and panics on error. For tests and embedded
// static documents only.
func MustParseString(s string) *Element {
	e, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return e
}

const xmlNamespace = "http://www.w3.org/XML/1998/namespace"

// parser is the state of one ParseString call. Strings taken from s
// (frame.qname, frame.text while !owned, binding.prefix, rawAttr) live
// only until the element they belong to is closed; everything stored
// in the tree goes through intern or strings.Clone first.
type parser struct {
	s   string
	pos int

	root  *Element
	open  []frame    // open elements, outermost first
	kids  []*Element // children found so far of every open element, innermost last
	ns    []binding  // namespace declarations in scope, innermost last
	attrs []rawAttr  // attributes of the start tag being read
	buf   []byte     // scratch for values with references or carriage returns

	interned map[string]string
	nsIndex  map[string]int // prefix → innermost binding in ns; nil while ns is short enough to scan
	compared int            // bindings resolve has looked at one by one: the cost no tree comparison sees
	chunk    int            // elements (and child pointers) per slab chunk
	els      []Element      // unused rest of the current element chunk
	ptrs     []*Element     // unused rest of the current child-pointer chunk

	// First backing arrays of open, ns and attrs: one allocation with
	// the parser instead of a few growing ones per document.
	openBuf [8]frame
	nsBuf   [8]binding
	attrBuf [4]rawAttr
}

type frame struct {
	el    *Element
	qname string // name as written, which the end tag must repeat
	ns    int    // len(parser.ns) before this element's declarations
	kids  int    // len(parser.kids) before this element's first child
	text  string // character data so far
	owned bool   // text no longer aliases the input
}

type binding struct {
	prefix, uri string
	shadowed    int // the binding of prefix this one hides, -1 for none; set once nsIndex exists
}

type rawAttr struct {
	prefix, local, value string
	owned                bool   // value does not alias the input
	space                string // resolved namespace, set by setAttrs
}

// maxScannedBindings is how many namespace declarations in scope
// resolve scans before it turns to a map. Messages have a handful; a
// document with thousands on its root must not cost a scan of them for
// every prefixed name below.
const maxScannedBindings = 8

// fail reports msg at offset at, or that the input ended if it did.
func (p *parser) fail(at int, msg string) error {
	if at >= len(p.s) {
		at, msg = len(p.s), "unexpected EOF"
	}
	return fmt.Errorf("xmltree: parse: line %d: %s", 1+strings.Count(p.s[:at], "\n"), msg)
}

func (p *parser) eof() error { return p.fail(len(p.s), "") }

// peek returns the byte at p.pos, 0 at the end of input.
func (p *parser) peek() byte {
	if p.pos < len(p.s) {
		return p.s[p.pos]
	}
	return 0
}

// token consumes one piece of markup or one run of character data.
func (p *parser) token() error {
	s := p.s
	if s[p.pos] != '<' {
		return p.charData(false)
	}
	if p.pos+1 == len(s) {
		return p.eof()
	}
	switch s[p.pos+1] {
	case '/':
		return p.endTag()
	case '?':
		return p.procInst()
	case '!':
		return p.bang()
	}
	return p.startTag()
}

func (p *parser) startTag() error {
	s := p.s
	if len(p.open) == 0 && p.root != nil {
		return errors.New("xmltree: multiple root elements")
	}
	p.pos++ // <
	nameAt := p.pos
	prefix, local, err := p.qname("expected element name after <")
	if err != nil {
		return err
	}
	f := frame{qname: s[nameAt:p.pos], ns: len(p.ns)}
	p.attrs = p.attrs[:0]
	empty := false
	for {
		p.space()
		if p.peek() == '>' {
			p.pos++
			break
		}
		if p.peek() == '/' {
			p.pos++
			if p.peek() != '>' {
				return p.fail(p.pos, "expected /> in element")
			}
			p.pos++
			empty = true
			break
		}
		a := rawAttr{}
		if a.prefix, a.local, err = p.qname("expected attribute name in element"); err != nil {
			return err
		}
		p.space()
		if p.peek() != '=' {
			return p.fail(p.pos, "attribute name without = in element")
		}
		p.pos++
		p.space()
		quote := p.peek()
		if quote != '"' && quote != '\'' {
			return p.fail(p.pos, "unquoted or missing attribute value in element")
		}
		p.pos++
		if a.value, a.owned, err = p.text(int(quote), false); err != nil {
			return err
		}
		// Declarations take effect for the whole tag, this element's
		// own name included, so they are bound before anything resolves.
		switch {
		case a.prefix == "xmlns":
			p.bind(a.local, a.value)
		case a.prefix == "" && a.local == "xmlns":
			p.bind("", a.value)
		default:
			p.attrs = append(p.attrs, a)
		}
	}

	el := p.newElement()
	el.Name = Name{Space: p.resolve(prefix, local, true), Local: p.intern(local)}
	p.setAttrs(el)
	if len(p.open) == 0 {
		p.root = el
	} else {
		el.parent = p.open[len(p.open)-1].el
		p.kids = append(p.kids, el)
	}
	if empty {
		p.unbind(f.ns)
		return nil
	}
	f.el, f.kids = el, len(p.kids)
	p.open = append(p.open, f)
	return nil
}

// setAttrs gives el the attributes collected in p.attrs, in one
// allocation of the number that stay. An attribute whose name lands in
// the "xmlns" space, or on an unqualified "xmlns", counts as a
// declaration and is not kept, although it declares nothing.
func (p *parser) setAttrs(el *Element) {
	kept := p.attrs[:0]
	for _, a := range p.attrs {
		a.space = p.resolve(a.prefix, a.local, false)
		if a.space != "xmlns" && (a.space != "" || a.local != "xmlns") {
			kept = append(kept, a)
		}
	}
	if len(kept) == 0 {
		return
	}
	el.Attrs = make([]Attr, len(kept))
	for i, a := range kept {
		if !a.owned {
			a.value = strings.Clone(a.value)
		}
		el.Attrs[i] = Attr{Name: Name{Space: a.space, Local: p.intern(a.local)}, Value: a.value}
	}
}

// resolve maps a prefix to the namespace it names. Only element names
// take the default namespace; "xml" is bound by definition; "xmlns"
// and an element called plain "xmlns" are left alone; a prefix nobody
// declared stands for itself.
func (p *parser) resolve(prefix, local string, element bool) string {
	switch {
	case prefix == "xmlns":
		return "xmlns"
	case prefix == "" && (!element || local == "xmlns"):
		return ""
	case prefix == "xml":
		return xmlNamespace
	}
	if p.nsIndex != nil {
		if i, ok := p.nsIndex[prefix]; ok {
			return p.ns[i].uri
		}
		return p.intern(prefix)
	}
	for i := len(p.ns) - 1; i >= 0; i-- {
		p.compared++
		if p.ns[i].prefix == prefix {
			return p.ns[i].uri
		}
	}
	return p.intern(prefix)
}

// bind puts a namespace declaration in scope. Past maxScannedBindings
// the bindings are also indexed by prefix, for the rest of the document.
func (p *parser) bind(prefix, uri string) {
	p.ns = append(p.ns, binding{prefix: prefix, uri: p.intern(uri)})
	switch {
	case p.nsIndex != nil:
		p.index(len(p.ns) - 1)
	case len(p.ns) > maxScannedBindings:
		p.nsIndex = make(map[string]int, 2*len(p.ns))
		for i := range p.ns {
			p.index(i)
		}
	}
}

// index makes p.ns[i] the binding its prefix resolves to.
func (p *parser) index(i int) {
	b := &p.ns[i]
	b.shadowed = -1
	if j, ok := p.nsIndex[b.prefix]; ok {
		b.shadowed = j
	}
	p.nsIndex[b.prefix] = i
}

// unbind drops the declarations of an element that closes, all but the
// first n, and brings back what they hid.
func (p *parser) unbind(n int) {
	if p.nsIndex != nil {
		for i := len(p.ns) - 1; i >= n; i-- {
			if b := p.ns[i]; b.shadowed >= 0 {
				p.nsIndex[b.prefix] = b.shadowed
			} else {
				delete(p.nsIndex, b.prefix)
			}
		}
	}
	p.ns = p.ns[:n]
}

func (p *parser) endTag() error {
	s := p.s
	nameAt := p.pos + 2 // </
	p.pos = nameAt
	if _, _, err := p.qname("expected element name after </"); err != nil {
		return err
	}
	if len(p.open) == 0 {
		return p.fail(nameAt, "unexpected end element </"+s[nameAt:p.pos]+">")
	}
	top := &p.open[len(p.open)-1]
	if s[nameAt:p.pos] != top.qname {
		return p.fail(nameAt, "element <"+top.qname+"> closed by </"+s[nameAt:p.pos]+">")
	}
	p.space()
	if p.peek() != '>' {
		return p.fail(p.pos, "invalid characters between </"+top.qname+" and >")
	}
	p.pos++

	el := top.el
	if n := len(p.kids) - top.kids; n > 0 {
		el.Children = p.carve(n)
		copy(el.Children, p.kids[top.kids:])
		p.kids = p.kids[:top.kids]
	}
	el.Text = strings.TrimSpace(top.text)
	if !top.owned {
		el.Text = strings.Clone(el.Text)
	}
	p.unbind(top.ns)
	p.open = p.open[:len(p.open)-1]
	return nil
}

// charData reads text up to the next markup, or a CDATA section, and
// adds it to the innermost open element. Outside the root it is only
// checked.
func (p *parser) charData(cdata bool) error {
	val, owned, err := p.text(-1, cdata)
	if err != nil || len(p.open) == 0 {
		return err
	}
	top := &p.open[len(p.open)-1]
	switch {
	case val == "": // and x+"" is x itself, input and all
	case top.text != "":
		top.text, top.owned = top.text+val, true
	case strings.TrimSpace(val) != "":
		top.text, top.owned = val, owned
	}
	return nil
}

// text reads character data starting at p.pos: an attribute value up
// to its closing quote (quote >= 0), a CDATA section up to "]]>", or
// text up to the next "<" or the end of input. It returns the value
// with references replaced and "\r\n" and "\r" turned into "\n", and
// whether that value is a fresh string rather than a piece of the
// input. p.pos is left after the closing quote or "]]>", or on the "<".
func (p *parser) text(quote int, cdata bool) (val string, owned bool, err error) {
	s := p.s
	start, i := p.pos, p.pos
	// Only raw bytes since the last reference can form "]]>".
	run := i
	// s[flushed:i] has not been copied to buf; nothing is copied until
	// the first byte that needs rewriting.
	flushed := i
	buf := p.buf[:0]
	var end int
scan:
	for {
		if i >= len(s) {
			if cdata || quote >= 0 {
				return "", false, p.eof()
			}
			end, p.pos = i, i
			break
		}
		b := s[i]
		if b >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				return "", false, p.fail(i, "invalid UTF-8")
			}
			if !inCharacterRange(r) {
				return "", false, p.fail(i, fmt.Sprintf("illegal character code %U", r))
			}
			i += size
			continue
		}
		if class[b]&cText == 0 {
			i++
			continue
		}
		switch {
		case b == '>':
			if quote < 0 && i-2 >= run && s[i-1] == ']' && s[i-2] == ']' {
				if !cdata {
					return "", false, p.fail(i, "unescaped ]]> not in CDATA section")
				}
				end, p.pos = i-2, i+1
				break scan
			}
		case b == '<' && !cdata:
			if quote >= 0 {
				return "", false, p.fail(i, "unescaped < inside quoted string")
			}
			end, p.pos = i, i
			break scan
		case int(b) == quote:
			end, p.pos = i, i+1
			break scan
		case b == '&' && !cdata:
			buf = append(buf, s[flushed:i]...)
			if buf, i, err = p.reference(buf, i); err != nil {
				return "", false, err
			}
			flushed, run, owned = i, i, true
			continue
		case b == '\r':
			buf = append(append(buf, s[flushed:i]...), '\n')
			if i+1 < len(s) && s[i+1] == '\n' {
				i++
			}
			flushed, owned = i+1, true
		case b < ' ' && b != '\t' && b != '\n':
			return "", false, p.fail(i, fmt.Sprintf("illegal character code %U", rune(b)))
		}
		i++
	}
	if !owned {
		return s[start:end], false, nil
	}
	buf = append(buf, s[flushed:end]...)
	p.buf = buf
	return string(buf), true, nil
}

// reference decodes the reference whose "&" is at s[i], appends the
// character to buf and returns the index after the ";". Only the five
// predefined entities and numeric references exist.
func (p *parser) reference(buf []byte, i int) ([]byte, int, error) {
	s := p.s
	rest := s[i+1:]
	for _, e := range [...]struct {
		name string
		char byte
	}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}} {
		if strings.HasPrefix(rest, e.name) {
			return append(buf, e.char), i + 1 + len(e.name), nil
		}
	}
	j, n, digits, base := i+2, 0, 0, 10
	if strings.HasPrefix(rest, "#x") {
		j, base = i+3, 16
	}
	if strings.HasPrefix(rest, "#") {
		for ; j < len(s); j++ {
			d := digitValue(s[j])
			if d >= base {
				break
			}
			if n <= utf8.MaxRune {
				n = n*base + d
			}
			digits++
		}
		if j < len(s) && s[j] == ';' && digits > 0 && n <= utf8.MaxRune {
			r := rune(n)
			if !utf8.ValidRune(r) {
				r = utf8.RuneError // what string(rune) makes of a surrogate
			}
			if !inCharacterRange(r) {
				return nil, 0, p.fail(i, fmt.Sprintf("illegal character code %U", r))
			}
			return utf8.AppendRune(buf, r), j + 1, nil
		}
	}
	return nil, 0, p.fail(i, "invalid character entity")
}

func digitValue(b byte) int {
	switch {
	case '0' <= b && b <= '9':
		return int(b - '0')
	case 'a' <= b && b <= 'f':
		return int(b-'a') + 10
	case 'A' <= b && b <= 'F':
		return int(b-'A') + 10
	}
	return 16
}

func inCharacterRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

func (p *parser) procInst() error {
	s := p.s
	p.pos += 2 // <?
	target, err := p.name("expected target name after <?")
	if err != nil {
		return err
	}
	p.space()
	n := strings.Index(s[p.pos:], "?>")
	if n < 0 {
		return p.eof()
	}
	content := s[p.pos : p.pos+n]
	p.pos += n + 2
	if target != "xml" {
		return nil
	}
	if v := declParam(content, "version="); v != "" && v != "1.0" {
		return fmt.Errorf("xmltree: parse: unsupported version %q; only version 1.0 is supported", v)
	}
	if enc := declParam(content, "encoding="); enc != "" && !strings.EqualFold(enc, "utf-8") {
		return fmt.Errorf("xmltree: parse: unsupported encoding %q; only UTF-8 is supported", enc)
	}
	return nil
}

// declParam finds the quoted value after the first `param` (given with
// its "=") in an XML declaration that is followed by a quote. It is as
// loose as encoding/xml's reading of the declaration, on purpose.
func declParam(s, param string) string {
	i := 0
	var sep byte
	for i < len(s) && sep == 0 {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// bang reads a comment, a CDATA section or a directive.
func (p *parser) bang() error {
	s := p.s
	p.pos += 2 // <!
	switch {
	case strings.HasPrefix(s[p.pos:], "--"):
		n := strings.Index(s[p.pos+2:], "--")
		if n < 0 {
			return p.eof()
		}
		p.pos += 2 + n + 2
		if p.peek() != '>' {
			return p.fail(p.pos, `invalid sequence "--" not allowed in comments`)
		}
		p.pos++
		return nil
	case strings.HasPrefix(s[p.pos:], "[CDATA["):
		p.pos += len("[CDATA[")
		return p.charData(true)
	case p.peek() == '-':
		return p.fail(p.pos+1, "invalid sequence <!- not part of <!--")
	case p.peek() == '[':
		return p.fail(p.pos+1, "invalid <![ sequence")
	}
	return p.directive()
}

// directive skips <!DOCTYPE ...> and its like: up to the ">" that is
// outside quotes, nested <...> and <!-- --> comments. The byte after
// "<!" is taken as is.
func (p *parser) directive() error {
	s := p.s
	p.pos++
	var quote byte
	depth := 0
	for {
		if p.pos >= len(s) {
			return p.eof()
		}
		b := s[p.pos]
		p.pos++
		if quote == 0 && depth == 0 && b == '>' {
			return nil
		}
	again:
		switch {
		case b == quote:
			quote = 0
		case quote != 0:
		case b == '\'' || b == '"':
			quote = b
		case b == '>':
			depth--
		case b == '<':
			for _, want := range [...]byte{'!', '-', '-'} {
				if p.pos >= len(s) {
					return p.eof()
				}
				b = s[p.pos]
				p.pos++
				if b != want {
					depth++
					goto again
				}
			}
			n := strings.Index(s[p.pos:], "-->")
			if n < 0 {
				return p.eof()
			}
			p.pos += n + 3
		}
	}
}

func (p *parser) space() {
	for p.pos < len(p.s) && p.s[p.pos] < utf8.RuneSelf && class[p.s[p.pos]]&cSpace != 0 {
		p.pos++
	}
}

// name reads an XML name: the longest run of ASCII name bytes and
// non-ASCII bytes, which must be a Name of XML 1.0 and must not be the
// last thing in the input. missing is the complaint when there is none.
func (p *parser) name(missing string) (string, error) {
	s, i := p.s, p.pos
	ascii := true
	for ; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			ascii = false
		} else if class[s[i]]&cName == 0 {
			break
		}
	}
	if i == len(s) {
		return "", p.eof()
	}
	name := s[p.pos:i]
	if name == "" {
		return "", p.fail(i, missing)
	}
	if ascii && class[name[0]]&cStart == 0 || !ascii && !isName(name) {
		return "", p.fail(p.pos, "invalid XML name: "+name)
	}
	p.pos = i
	return name, nil
}

// qname reads a name and splits it at its colon. A colon at either end
// is part of the local name; two colons are not a name at all.
func (p *parser) qname(missing string) (prefix, local string, err error) {
	at := p.pos
	name, err := p.name(missing)
	if err != nil {
		return "", "", err
	}
	i := strings.IndexByte(name, ':')
	switch {
	case i < 0:
		return "", name, nil
	case strings.IndexByte(name[i+1:], ':') >= 0:
		return "", "", p.fail(at, missing)
	case i == 0 || i == len(name)-1:
		return "", name, nil
	}
	return name[:i], name[i+1:], nil
}

// intern returns the document's own copy of s.
func (p *parser) intern(s string) string {
	if s == "" {
		return ""
	}
	if v, ok := p.interned[s]; ok {
		return v
	}
	if p.interned == nil {
		p.interned = make(map[string]string, 8)
	}
	s = strings.Clone(s)
	p.interned[s] = s
	return s
}

// newElement takes the next element of the current chunk. A tree is
// kept or dropped whole, so its elements share a few allocations.
func (p *parser) newElement() *Element {
	if len(p.els) == 0 {
		p.els = make([]Element, p.chunk)
	}
	el := &p.els[0]
	p.els = p.els[1:]
	return el
}

// carve returns n child pointers whose capacity stops at n, so that an
// append to one element's Children never writes into its neighbour's.
func (p *parser) carve(n int) []*Element {
	if n > len(p.ptrs) {
		if n >= p.chunk {
			return make([]*Element, n)
		}
		p.ptrs = make([]*Element, p.chunk)
	}
	c := p.ptrs[:n:n]
	p.ptrs = p.ptrs[n:]
	return c
}

// Classes of ASCII bytes.
const (
	cName  = 1 << iota // may appear in a name
	cStart             // may start a name
	cSpace             // skipped inside tags
	cText              // needs a look inside character data and attribute values
)

var class = func() (t [utf8.RuneSelf]uint8) {
	for b := 0; b < len(t); b++ {
		switch {
		case 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' || b == '_' || b == ':':
			t[b] = cName | cStart
		case '0' <= b && b <= '9' || b == '.' || b == '-':
			t[b] = cName
		case b == ' ' || b == '\t' || b == '\n':
			t[b] = cSpace
		case b == '\r':
			t[b] = cSpace | cText
		case b < ' ' || strings.IndexByte(`<>&"'`, byte(b)) >= 0:
			t[b] = cText
		}
	}
	return t
}()

// isName reports whether s is a Name of XML 1.0 (fourth edition): a
// Letter, "_" or ":" followed by Letters, Digits, CombiningChars,
// Extenders and "._-:". Invalid UTF-8 decodes to U+FFFD, which is none
// of these.
func isName(s string) bool {
	for i, r := range s {
		if !inRanges(nameStart[:], r) && (i == 0 || !inRanges(nameRest[:], r)) {
			return false
		}
	}
	return s != ""
}

// inRanges reports whether r lies in one of the sorted, disjoint
// [lo, hi] pairs of t.
func inRanges(t []uint16, r rune) bool {
	lo, hi := 0, len(t)/2
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case r < rune(t[2*mid]):
			hi = mid
		case r > rune(t[2*mid+1]):
			lo = mid + 1
		default:
			return true
		}
	}
	return false
}

// nameStart is Letter | "_" | ":" of XML 1.0 fourth edition, appendix
// B, as inclusive ranges; nameRest adds Digit | CombiningChar |
// Extender | "." | "-". (The fifth edition's wider NameStartChar is
// not what encoding/xml implements, so it is not what peers see.)
var nameStart = [...]uint16{
	0x003A, 0x003A, 0x0041, 0x005A, 0x005F, 0x005F, 0x0061, 0x007A, 0x00C0, 0x00D6, 0x00D8, 0x00F6,
	0x00F8, 0x0131, 0x0134, 0x013E, 0x0141, 0x0148, 0x014A, 0x017E, 0x0180, 0x01C3, 0x01CD, 0x01F0,
	0x01F4, 0x01F5, 0x01FA, 0x0217, 0x0250, 0x02A8, 0x02BB, 0x02C1, 0x0386, 0x0386, 0x0388, 0x038A,
	0x038C, 0x038C, 0x038E, 0x03A1, 0x03A3, 0x03CE, 0x03D0, 0x03D6, 0x03DA, 0x03DA, 0x03DC, 0x03DC,
	0x03DE, 0x03DE, 0x03E0, 0x03E0, 0x03E2, 0x03F3, 0x0401, 0x040C, 0x040E, 0x044F, 0x0451, 0x045C,
	0x045E, 0x0481, 0x0490, 0x04C4, 0x04C7, 0x04C8, 0x04CB, 0x04CC, 0x04D0, 0x04EB, 0x04EE, 0x04F5,
	0x04F8, 0x04F9, 0x0531, 0x0556, 0x0559, 0x0559, 0x0561, 0x0586, 0x05D0, 0x05EA, 0x05F0, 0x05F2,
	0x0621, 0x063A, 0x0641, 0x064A, 0x0671, 0x06B7, 0x06BA, 0x06BE, 0x06C0, 0x06CE, 0x06D0, 0x06D3,
	0x06D5, 0x06D5, 0x06E5, 0x06E6, 0x0905, 0x0939, 0x093D, 0x093D, 0x0958, 0x0961, 0x0985, 0x098C,
	0x098F, 0x0990, 0x0993, 0x09A8, 0x09AA, 0x09B0, 0x09B2, 0x09B2, 0x09B6, 0x09B9, 0x09DC, 0x09DD,
	0x09DF, 0x09E1, 0x09F0, 0x09F1, 0x0A05, 0x0A0A, 0x0A0F, 0x0A10, 0x0A13, 0x0A28, 0x0A2A, 0x0A30,
	0x0A32, 0x0A33, 0x0A35, 0x0A36, 0x0A38, 0x0A39, 0x0A59, 0x0A5C, 0x0A5E, 0x0A5E, 0x0A72, 0x0A74,
	0x0A85, 0x0A8B, 0x0A8D, 0x0A8D, 0x0A8F, 0x0A91, 0x0A93, 0x0AA8, 0x0AAA, 0x0AB0, 0x0AB2, 0x0AB3,
	0x0AB5, 0x0AB9, 0x0ABD, 0x0ABD, 0x0AE0, 0x0AE0, 0x0B05, 0x0B0C, 0x0B0F, 0x0B10, 0x0B13, 0x0B28,
	0x0B2A, 0x0B30, 0x0B32, 0x0B33, 0x0B36, 0x0B39, 0x0B3D, 0x0B3D, 0x0B5C, 0x0B5D, 0x0B5F, 0x0B61,
	0x0B85, 0x0B8A, 0x0B8E, 0x0B90, 0x0B92, 0x0B95, 0x0B99, 0x0B9A, 0x0B9C, 0x0B9C, 0x0B9E, 0x0B9F,
	0x0BA3, 0x0BA4, 0x0BA8, 0x0BAA, 0x0BAE, 0x0BB5, 0x0BB7, 0x0BB9, 0x0C05, 0x0C0C, 0x0C0E, 0x0C10,
	0x0C12, 0x0C28, 0x0C2A, 0x0C33, 0x0C35, 0x0C39, 0x0C60, 0x0C61, 0x0C85, 0x0C8C, 0x0C8E, 0x0C90,
	0x0C92, 0x0CA8, 0x0CAA, 0x0CB3, 0x0CB5, 0x0CB9, 0x0CDE, 0x0CDE, 0x0CE0, 0x0CE1, 0x0D05, 0x0D0C,
	0x0D0E, 0x0D10, 0x0D12, 0x0D28, 0x0D2A, 0x0D39, 0x0D60, 0x0D61, 0x0E01, 0x0E2E, 0x0E30, 0x0E30,
	0x0E32, 0x0E33, 0x0E40, 0x0E45, 0x0E81, 0x0E82, 0x0E84, 0x0E84, 0x0E87, 0x0E88, 0x0E8A, 0x0E8A,
	0x0E8D, 0x0E8D, 0x0E94, 0x0E97, 0x0E99, 0x0E9F, 0x0EA1, 0x0EA3, 0x0EA5, 0x0EA5, 0x0EA7, 0x0EA7,
	0x0EAA, 0x0EAB, 0x0EAD, 0x0EAE, 0x0EB0, 0x0EB0, 0x0EB2, 0x0EB3, 0x0EBD, 0x0EBD, 0x0EC0, 0x0EC4,
	0x0F40, 0x0F47, 0x0F49, 0x0F69, 0x10A0, 0x10C5, 0x10D0, 0x10F6, 0x1100, 0x1100, 0x1102, 0x1103,
	0x1105, 0x1107, 0x1109, 0x1109, 0x110B, 0x110C, 0x110E, 0x1112, 0x113C, 0x113C, 0x113E, 0x113E,
	0x1140, 0x1140, 0x114C, 0x114C, 0x114E, 0x114E, 0x1150, 0x1150, 0x1154, 0x1155, 0x1159, 0x1159,
	0x115F, 0x1161, 0x1163, 0x1163, 0x1165, 0x1165, 0x1167, 0x1167, 0x1169, 0x1169, 0x116D, 0x116E,
	0x1172, 0x1173, 0x1175, 0x1175, 0x119E, 0x119E, 0x11A8, 0x11A8, 0x11AB, 0x11AB, 0x11AE, 0x11AF,
	0x11B7, 0x11B8, 0x11BA, 0x11BA, 0x11BC, 0x11C2, 0x11EB, 0x11EB, 0x11F0, 0x11F0, 0x11F9, 0x11F9,
	0x1E00, 0x1E9B, 0x1EA0, 0x1EF9, 0x1F00, 0x1F15, 0x1F18, 0x1F1D, 0x1F20, 0x1F45, 0x1F48, 0x1F4D,
	0x1F50, 0x1F57, 0x1F59, 0x1F59, 0x1F5B, 0x1F5B, 0x1F5D, 0x1F5D, 0x1F5F, 0x1F7D, 0x1F80, 0x1FB4,
	0x1FB6, 0x1FBC, 0x1FBE, 0x1FBE, 0x1FC2, 0x1FC4, 0x1FC6, 0x1FCC, 0x1FD0, 0x1FD3, 0x1FD6, 0x1FDB,
	0x1FE0, 0x1FEC, 0x1FF2, 0x1FF4, 0x1FF6, 0x1FFC, 0x2126, 0x2126, 0x212A, 0x212B, 0x212E, 0x212E,
	0x2180, 0x2182, 0x3007, 0x3007, 0x3021, 0x3029, 0x3041, 0x3094, 0x30A1, 0x30FA, 0x3105, 0x312C,
	0x4E00, 0x9FA5, 0xAC00, 0xD7A3,
}

var nameRest = [...]uint16{
	0x002D, 0x002E, 0x0030, 0x0039, 0x00B7, 0x00B7, 0x02D0, 0x02D1, 0x0300, 0x0345, 0x0360, 0x0361,
	0x0387, 0x0387, 0x0483, 0x0486, 0x0591, 0x05A1, 0x05A3, 0x05B9, 0x05BB, 0x05BD, 0x05BF, 0x05BF,
	0x05C1, 0x05C2, 0x05C4, 0x05C4, 0x0640, 0x0640, 0x064B, 0x0652, 0x0660, 0x0669, 0x0670, 0x0670,
	0x06D6, 0x06E4, 0x06E7, 0x06E8, 0x06EA, 0x06ED, 0x06F0, 0x06F9, 0x0901, 0x0903, 0x093C, 0x093C,
	0x093E, 0x094D, 0x0951, 0x0954, 0x0962, 0x0963, 0x0966, 0x096F, 0x0981, 0x0983, 0x09BC, 0x09BC,
	0x09BE, 0x09C4, 0x09C7, 0x09C8, 0x09CB, 0x09CD, 0x09D7, 0x09D7, 0x09E2, 0x09E3, 0x09E6, 0x09EF,
	0x0A02, 0x0A02, 0x0A3C, 0x0A3C, 0x0A3E, 0x0A42, 0x0A47, 0x0A48, 0x0A4B, 0x0A4D, 0x0A66, 0x0A71,
	0x0A81, 0x0A83, 0x0ABC, 0x0ABC, 0x0ABE, 0x0AC5, 0x0AC7, 0x0AC9, 0x0ACB, 0x0ACD, 0x0AE6, 0x0AEF,
	0x0B01, 0x0B03, 0x0B3C, 0x0B3C, 0x0B3E, 0x0B43, 0x0B47, 0x0B48, 0x0B4B, 0x0B4D, 0x0B56, 0x0B57,
	0x0B66, 0x0B6F, 0x0B82, 0x0B83, 0x0BBE, 0x0BC2, 0x0BC6, 0x0BC8, 0x0BCA, 0x0BCD, 0x0BD7, 0x0BD7,
	0x0BE7, 0x0BEF, 0x0C01, 0x0C03, 0x0C3E, 0x0C44, 0x0C46, 0x0C48, 0x0C4A, 0x0C4D, 0x0C55, 0x0C56,
	0x0C66, 0x0C6F, 0x0C82, 0x0C83, 0x0CBE, 0x0CC4, 0x0CC6, 0x0CC8, 0x0CCA, 0x0CCD, 0x0CD5, 0x0CD6,
	0x0CE6, 0x0CEF, 0x0D02, 0x0D03, 0x0D3E, 0x0D43, 0x0D46, 0x0D48, 0x0D4A, 0x0D4D, 0x0D57, 0x0D57,
	0x0D66, 0x0D6F, 0x0E31, 0x0E31, 0x0E34, 0x0E3A, 0x0E46, 0x0E4E, 0x0E50, 0x0E59, 0x0EB1, 0x0EB1,
	0x0EB4, 0x0EB9, 0x0EBB, 0x0EBC, 0x0EC6, 0x0EC6, 0x0EC8, 0x0ECD, 0x0ED0, 0x0ED9, 0x0F18, 0x0F19,
	0x0F20, 0x0F29, 0x0F35, 0x0F35, 0x0F37, 0x0F37, 0x0F39, 0x0F39, 0x0F3E, 0x0F3F, 0x0F71, 0x0F84,
	0x0F86, 0x0F8B, 0x0F90, 0x0F95, 0x0F97, 0x0F97, 0x0F99, 0x0FAD, 0x0FB1, 0x0FB7, 0x0FB9, 0x0FB9,
	0x20D0, 0x20DC, 0x20E1, 0x20E1, 0x3005, 0x3005, 0x302A, 0x302F, 0x3031, 0x3035, 0x3099, 0x309A,
	0x309D, 0x309E, 0x30FC, 0x30FE,
}
