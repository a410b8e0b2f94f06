package xmltree

import "testing"

// The ceilings below are counts, not durations: the codec sits in every
// message's path, so an allocation that creeps back in is a regression
// of every workload at once.

func TestParseAllocCeiling(t *testing.T) {
	doc := benchRequests(700)[1] // the benchmark's 30 KB, 710-element passthru body
	if n := testing.AllocsPerRun(20, func() {
		if _, err := ParseString(doc); err != nil {
			t.Fatal(err)
		}
	}); n > 800 {
		t.Fatalf("ParseString of the %d-byte body: %.0f allocations, ceiling 800", len(doc), n)
	} else {
		t.Logf("ParseString of the %d-byte body: %.0f allocations", len(doc), n)
	}
	small := benchRequests(0)[0]
	t.Logf("ParseString of the %d-byte body: %.0f allocations", len(small), testing.AllocsPerRun(20, func() { ParseString(small) }))
}

func TestCopyAllocCeiling(t *testing.T) {
	root := MustParseString(benchRequests(700)[1])
	if n := testing.AllocsPerRun(20, func() { root.Copy() }); n > 3 {
		t.Fatalf("Copy of a %d-element tree: %.0f allocations, ceiling 3", len(root.FindAll(func(*Element) bool { return true }))+1, n)
	}
	leaf := NewText("urn:x", "leaf", "text")
	if n := testing.AllocsPerRun(20, func() { leaf.Copy() }); n > 1 {
		t.Fatalf("Copy of a leaf: %.0f allocations, ceiling 1", n)
	}
}

// TestCopySlicesDoNotOverlap appends to a copied (and to a parsed)
// element's slices and checks its neighbours in the slab are intact.
func TestCopySlicesDoNotOverlap(t *testing.T) {
	const doc = `<r><a k="1"><x/></a><b k="2"><y/></b></r>`
	for name, root := range map[string]*Element{"parsed": MustParseString(doc), "copied": MustParseString(doc).Copy()} {
		a := root.Child("", "a")
		a.Append(New("", "extra"))
		a.SetAttr("", "more", "3")
		if got, _ := MarshalString(root); got != `<r><a k="1" more="3"><x/><extra/></a><b k="2"><y/></b></r>` {
			t.Errorf("%s tree after appends: %s", name, got)
		}
	}
}
