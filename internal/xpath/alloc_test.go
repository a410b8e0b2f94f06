package xpath

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/masc-project/masc/internal/xmltree"
)

// orderWithNotes is the shape of the benchmark's large submitOrder: one
// item and a <notes> subtree of the given number of lines.
func orderWithNotes(t *testing.T, lines int) *xmltree.Element {
	t.Helper()
	var b strings.Builder
	b.WriteString(`<Envelope><Body><submitOrder xmlns="urn:wsi:scm"><customerID>c-1</customerID>`)
	b.WriteString(`<items><item><sku>605001</sku><qty>1</qty></item></items><notes>`)
	for i := 0; i < lines; i++ {
		fmt.Fprintf(&b, "<line>fragile pallet %04d</line>", i)
	}
	b.WriteString(`</notes></submitOrder></Body></Envelope>`)
	root, err := xmltree.ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func programAllocs(t *testing.T, src string, root *xmltree.Element, want float64) float64 {
	t.Helper()
	c := MustCompile(src)
	var got float64
	n := testing.AllocsPerRun(50, func() {
		v, err := c.Eval(root)
		if err != nil {
			t.Fatal(err)
		}
		got = v.Number()
	})
	if got != want {
		t.Fatalf("%s = %v, want %v", src, got, want)
	}
	return n
}

// TestStepAllocationsFollowTheResult holds the lowered path steps to
// counts: a // step walks the tree in place, so what it allocates
// follows the nodes it selects, not the nodes it passes. Each step
// used to list every element of the tree and keep a map of them.
func TestStepAllocationsFollowTheResult(t *testing.T) {
	small, large := orderWithNotes(t, 70), orderWithNotes(t, 700)

	// One item in either tree: the same allocations.
	for _, src := range []string{"count(//item)", "count(//item[qty > 0])"} {
		a, b := programAllocs(t, src, small, 1), programAllocs(t, src, large, 1)
		if a != b {
			t.Errorf("%s: %.0f allocations on 70 lines, %.0f on 700", src, a, b)
		}
	}

	// 700 lines selected: the result's own growth, by append, and the
	// evaluation's fixed cost measured above, and nothing per element
	// passed.
	var grown NodeSet
	growth := testing.AllocsPerRun(50, func() {
		grown = nil
		for i := 0; i < 700; i++ {
			grown = append(grown, Node{})
		}
	})
	fixed := programAllocs(t, "count(//item)", large, 1)
	const ceiling = 24
	n := programAllocs(t, "count(//notes/line)", large, 700)
	if n > fixed+growth || n > ceiling {
		t.Errorf("count(//notes/line) over 700 lines: %.0f allocations; want ≤ %.0f (fixed) + %.0f (growth of 700 nodes) and ≤ %d",
			n, fixed, growth, ceiling)
	}
	t.Logf("count(//notes/line): %.0f allocations (fixed %.0f, growth %.0f)", n, fixed, growth)
}

// TestMessagePatternsAreNotRetained evaluates matches() with a pattern
// read from the message, as a policy may: each distinct pattern is
// compiled for its call and kept nowhere, so 20 000 of them leave the
// live heap within 1 MB of where it was.
func TestMessagePatternsAreNotRetained(t *testing.T) {
	c := MustCompile("matches(//id, string(//pattern))")
	root := xmltree.MustParseString(`<m><id>order-17</id><pattern/></m>`)
	pattern := root.Children[1]
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := liveHeap()
	matched := 0
	for i := 0; i < 20000; i++ {
		pattern.Text = fmt.Sprintf("^order-%d$", i)
		ok, err := c.EvalBool(root, Context{})
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			matched++
		}
	}
	grown := liveHeap() - before
	if matched != 1 {
		t.Fatalf("%d patterns matched, want 1", matched)
	}
	if grown > 1<<20 {
		t.Errorf("live heap grew %d KB over 20 000 message-supplied patterns; want ≤ 1 024 KB", grown>>10)
	}
	t.Logf("live heap grew %d KB over 20 000 message-supplied patterns", grown>>10)
}
