// Command docscheck keeps the documentation honest in CI. It has two
// passes, both run from the repository root:
//
//  1. Markdown link check — every relative link target in docs/*.md
//     and the top-level markdown files must exist on disk (external
//     http(s)/mailto links and pure #fragments are skipped).
//  2. Godoc coverage — every exported declaration in internal/store
//     (the on-disk format's implementation, specified by
//     docs/persistence.md) and internal/daemon (the assembly cmd/mascd
//     and every test daemon share) must carry a doc comment.
//
// Any finding prints as file: message and the process exits 1.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	var problems []string
	problems = append(problems, checkLinks()...)
	problems = append(problems, checkGodoc("internal/store")...)
	problems = append(problems, checkGodoc("internal/daemon")...)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "docscheck:", p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// linkPattern matches inline markdown links [text](target). Reference
// definitions and autolinks are out of scope — the repo's docs use
// inline links only.
var linkPattern = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// codeSpan matches inline code, where markdown renders no links —
// Go generics such as `New[T](n)` would otherwise read as one.
var codeSpan = regexp.MustCompile("`[^`\n]*`")

// docFiles returns the markdown set under check: everything in docs/
// plus the top-level markdown files.
func docFiles() ([]string, error) {
	files, err := filepath.Glob("docs/*.md")
	if err != nil {
		return nil, err
	}
	top, err := filepath.Glob("*.md")
	if err != nil {
		return nil, err
	}
	return append(files, top...), nil
}

func checkLinks() []string {
	files, err := docFiles()
	if err != nil {
		return []string{err.Error()}
	}
	if len(files) == 0 {
		return []string{"no markdown files found (run from the repository root)"}
	}
	var problems []string
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		text := codeSpan.ReplaceAllString(string(raw), "")
		for _, m := range linkPattern.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems, fmt.Sprintf("%s: broken link %q (%s does not exist)", file, m[1], resolved))
			}
		}
	}
	return problems
}

// checkGodoc parses one package directory and reports every exported
// top-level declaration (and method on an exported receiver) without a
// doc comment. Grouped const/var specs are covered by the group's doc.
func checkGodoc(dir string) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{err.Error()}
	}
	var problems []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: exported %s lacks a doc comment", p.Filename, p.Line, what))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !receiverExported(d) {
						continue
					}
					if d.Doc == nil {
						report(d.Pos(), "func "+d.Name.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
								report(s.Pos(), "type "+s.Name.Name)
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
									report(name.Pos(), "value "+name.Name)
								}
							}
						}
					}
				}
			}
		}
	}
	return problems
}

// receiverExported reports whether a method's receiver type is
// exported (true for plain functions). Methods on unexported types are
// not part of the package's documented surface.
func receiverExported(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if ident, ok := t.(*ast.Ident); ok {
		return ident.IsExported()
	}
	return true
}
