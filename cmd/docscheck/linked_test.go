package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const source = `package p

func init() {}

func F() {}

func (t *T) Ptr() {}

func (t T) Val() {}

func G[E any](e E) {}

func (l *List[E]) Push(e E) {}
`

func parseFunctions(t *testing.T) []function {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", source, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return fileFunctions(fset, "p", file)
}

// TestFileFunctionsLinkerNames: a function maps to pkg.F, a pointer
// method to pkg.(*T).M, a value method to pkg.T.M and its (*T).M
// wrapper; init, generic functions and methods of generic types are
// skipped.
func TestFileFunctionsLinkerNames(t *testing.T) {
	got := map[string][]string{}
	for _, f := range parseFunctions(t) {
		got[f.name] = f.syms
	}
	want := map[string][]string{
		"p.F":        {"p.F"},
		"p.(*T).Ptr": {"p.(*T).Ptr"},
		"p.T.Val":    {"p.(*T).Val", "p.T.Val"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("functions = %v, want %v", got, want)
	}
}

// TestUnlinkedReportsAndStaleEntries: an unlinked function is reported
// unless allowlisted; a value method counts as linked through its
// wrapper alone; an allowlist entry is reported once its function is
// linked or no longer declared.
func TestUnlinkedReportsAndStaleEntries(t *testing.T) {
	funcs := parseFunctions(t)
	nm := []byte(strings.Join([]string{
		"  4a1000 T x/p.(*T).Val",
		"  4a1100 t x/p.(*T).Ptr",
		"  4a1200 D x/p.F", // not text: does not link F
		"  4a1300 T other/q.F",
	}, "\n"))
	linked := map[string]bool{}
	addTextSymbols(linked, nm, "x/")
	if want := map[string]bool{"p.(*T).Val": true, "p.(*T).Ptr": true}; !reflect.DeepEqual(linked, want) {
		t.Fatalf("linked = %v, want %v", linked, want)
	}

	problems := unlinked(funcs, linked, nil)
	if len(problems) != 1 || !strings.Contains(problems[0], "p.F is linked by no binary") {
		t.Fatalf("no allowlist: %q, want p.F reported", problems)
	}
	if problems := unlinked(funcs, linked, map[string]string{"p.F": "test helper"}); len(problems) != 0 {
		t.Fatalf("p.F allowlisted: %q, want none", problems)
	}
	problems = unlinked(funcs, linked, map[string]string{
		"p.F": "test helper", "p.T.Val": "test helper", "p.Gone": "item 1",
	})
	want := []string{"p.T.Val is linked now", "p.Gone is not declared"}
	if len(problems) != len(want) {
		t.Fatalf("stale entries: %q, want %q", problems, want)
	}
	for i, w := range want {
		if !strings.Contains(problems[i], w) {
			t.Errorf("problem %d = %q, want it to say %q", i, problems[i], w)
		}
	}
}

// TestReadAllowlistReasons: each entry's reason must begin with one of
// the four tags, and a symbol may be listed once.
func TestReadAllowlistReasons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unlinked.txt")
	text := "# comment\n\n" +
		"a.F  item 4: settled there\n" +
		"a.G  benchmark/ only\n" +
		"a.H  test helper: two packages\n" +
		"a.I  interface marker\n" +
		"a.J  because\n" +
		"a.F  test helper\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	allow, problems := readAllowlist(path)
	if len(allow) != 4 {
		t.Errorf("allow = %v, want a.F, a.G, a.H and a.I", allow)
	}
	if len(problems) != 2 || !strings.Contains(problems[0], "a.J: the reason must begin") ||
		!strings.Contains(problems[1], "a.F is listed twice") {
		t.Errorf("problems = %q, want a.J's reason and a.F's duplicate", problems)
	}
}
