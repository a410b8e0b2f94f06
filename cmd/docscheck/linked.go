package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// allowlistFile names the functions no shipped binary links that stay
// anyway, one "symbol  reason" per line.
const allowlistFile = "cmd/docscheck/unlinked.txt"

// allowedReason is the closed set of reasons an allowlist entry may
// give: a ROADMAP item that will settle the function, a caller under
// benchmark/ (frozen, and not a shipped binary), a test helper that
// another package's tests import, or an empty interface marker.
var allowedReason = regexp.MustCompile(`^(item \d+|benchmark/ only|test helper|interface marker)\b`)

// function is one non-generic function declared under internal/: its
// linker name relative to internal/ (bus.(*VEP).Invoke), and every
// symbol whose presence in a binary means it is linked.
type function struct {
	name, pos string
	syms      []string
}

// checkLinked reports each function under internal/ that no main
// package outside benchmark/ links and the allowlist does not name,
// and each allowlist entry that is linked or no longer declared.
func checkLinked() []string {
	module, err := goList("-m")
	if err != nil {
		return []string{err.Error()}
	}
	allow, problems := readAllowlist(allowlistFile)
	funcs, err := internalFunctions(module[0] + "/internal/")
	if err != nil {
		return append(problems, err.Error())
	}
	linked, err := linkedSymbols(module[0])
	if err != nil {
		return append(problems, err.Error())
	}
	return append(problems, unlinked(funcs, linked, allow)...)
}

// goList runs go list with args and returns its output's fields.
func goList(args ...string) ([]string, error) {
	out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %w", strings.Join(args, " "), err)
	}
	return strings.Fields(string(out)), nil
}

// internalFunctions parses the non-test files go list selects for this
// platform under internal/ and returns their non-generic functions.
func internalFunctions(prefix string) ([]function, error) {
	pkgs, err := goList("-f", `{{.ImportPath}}|{{join .GoFiles "|"}}`, "./internal/...")
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var funcs []function
	for _, line := range pkgs {
		parts := strings.Split(line, "|")
		pkg := strings.TrimPrefix(parts[0], prefix)
		for _, name := range parts[1:] {
			file, err := parser.ParseFile(fset, filepath.Join("internal", pkg, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			funcs = append(funcs, fileFunctions(fset, pkg, file)...)
		}
	}
	return funcs, nil
}

// fileFunctions maps each function of one parsed file to its linker
// name under the package path pkg: pkg.F, pkg.T.M or pkg.(*T).M. A
// value-receiver method also counts as linked through its (*T).M
// wrapper. Generic functions and methods of generic types link only as
// instantiations, and init always links with its package, so all three
// are skipped.
func fileFunctions(fset *token.FileSet, pkg string, file *ast.File) []function {
	var funcs []function
	for _, decl := range file.Decls {
		d, ok := decl.(*ast.FuncDecl)
		if !ok || d.Type.TypeParams != nil || (d.Recv == nil && d.Name.Name == "init") {
			continue
		}
		f := function{name: pkg + "." + d.Name.Name, pos: fset.Position(d.Pos()).String()}
		if d.Recv != nil {
			t := d.Recv.List[0].Type
			star, pointer := t.(*ast.StarExpr)
			if pointer {
				t = star.X
			}
			ident, ok := t.(*ast.Ident)
			if !ok {
				continue // a generic receiver: T[P]
			}
			wrapper := pkg + ".(*" + ident.Name + ")." + d.Name.Name
			if f.name = pkg + "." + ident.Name + "." + d.Name.Name; pointer {
				f.name = wrapper
			} else {
				f.syms = []string{wrapper}
			}
		}
		f.syms = append(f.syms, f.name)
		funcs = append(funcs, f)
	}
	return funcs
}

// linkedSymbols builds the main packages outside benchmark/ with
// inlining off, so that small functions keep their symbols, and
// returns their text symbols under the module's internal/ directory,
// with that prefix stripped.
func linkedSymbols(module string) (map[string]bool, error) {
	pkgs, err := goList("-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
	if err != nil {
		return nil, err
	}
	var mains []string
	for _, p := range pkgs {
		if p != module+"/benchmark" && !strings.HasPrefix(p, module+"/benchmark/") {
			mains = append(mains, p)
		}
	}
	dir, err := os.MkdirTemp("", "docscheck-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	build := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", dir + string(filepath.Separator)}, mains...)...)
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	if len(bins) != len(mains) {
		return nil, fmt.Errorf("built %d binaries for %d main packages", len(bins), len(mains))
	}
	linked := map[string]bool{}
	for _, bin := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(dir, bin.Name())).Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %w", bin.Name(), err)
		}
		addTextSymbols(linked, out, module+"/internal/")
	}
	return linked, nil
}

// addTextSymbols adds to linked every text (T or t) symbol in go tool
// nm output that starts with prefix, with the prefix stripped.
func addTextSymbols(linked map[string]bool, nm []byte, prefix string) {
	for _, line := range strings.Split(string(nm), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 3 || (fields[1] != "T" && fields[1] != "t") {
			continue
		}
		if sym, ok := strings.CutPrefix(fields[2], prefix); ok {
			linked[sym] = true
		}
	}
}

// readAllowlist parses the allowlist: blank lines and # comments are
// skipped, every other line is a symbol, white space, and a reason
// that begins with one of allowedReason's tags.
func readAllowlist(path string) (map[string]string, []string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, []string{err.Error()}
	}
	allow := map[string]string{}
	var problems []string
	for i, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if _, dup := allow[sym]; dup {
			problems = append(problems, fmt.Sprintf("%s:%d: %s is listed twice", path, i+1, sym))
		} else if reason = strings.TrimSpace(reason); allowedReason.MatchString(reason) {
			allow[sym] = reason
		} else {
			problems = append(problems, fmt.Sprintf("%s:%d: %s: the reason must begin with item N, benchmark/ only, test helper or interface marker", path, i+1, sym))
		}
	}
	return allow, problems
}

// unlinked reports each function that no symbol in linked names and
// allow does not list, and each entry of allow whose function is
// linked or not declared, so the list cannot go stale.
func unlinked(funcs []function, linked map[string]bool, allow map[string]string) []string {
	var problems []string
	declared := map[string]bool{}
	for _, f := range funcs {
		declared[f.name] = true
		isLinked := false
		for _, s := range f.syms {
			isLinked = isLinked || linked[s]
		}
		switch _, allowed := allow[f.name]; {
		case isLinked && allowed:
			problems = append(problems, fmt.Sprintf("%s: %s is linked now; remove it from the list", allowlistFile, f.name))
		case !isLinked && !allowed:
			problems = append(problems, fmt.Sprintf("%s: %s is linked by no binary outside benchmark/; delete it, move it into the _test.go that uses it, or list it in %s", f.pos, f.name, allowlistFile))
		}
	}
	var stale []string
	for sym := range allow {
		if !declared[sym] {
			stale = append(stale, fmt.Sprintf("%s: %s is not declared under internal/; remove it from the list", allowlistFile, sym))
		}
	}
	sort.Strings(stale)
	return append(problems, stale...)
}
