package vaq

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// apiListing returns one line per exported top-level name, exported
// method (with its signature) and exported struct field declared in the
// package's non-test files, sorted, and the set of top-level names.
func apiListing(t *testing.T) (lines []string, names map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := func(n any) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, n); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	names = map[string]bool{}
	for _, f := range pkgs["vaq"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					names[d.Name.Name] = true
				} else {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if !recv.(*ast.Ident).IsExported() {
						continue
					}
				}
				lines = append(lines, src(&ast.FuncDecl{Recv: d.Recv, Name: d.Name, Type: d.Type}))
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if !s.Name.IsExported() {
							continue
						}
						names[s.Name.Name] = true
						st, isStruct := s.Type.(*ast.StructType)
						switch {
						case s.Assign.IsValid():
							lines = append(lines, "type "+s.Name.Name+" = "+src(s.Type))
						case isStruct:
							lines = append(lines, "type "+s.Name.Name+" struct")
							for _, fld := range st.Fields.List {
								for _, n := range fld.Names {
									if n.IsExported() {
										lines = append(lines, "field "+s.Name.Name+"."+n.Name+" "+src(fld.Type))
									}
								}
							}
						default:
							lines = append(lines, "type "+s.Name.Name+" "+src(s.Type))
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								names[n.Name] = true
								lines = append(lines, d.Tok.String()+" "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return lines, names
}

// TestPublicAPIPinned pins the exported surface of package vaq to
// testdata/api.txt: a name appears or disappears only with an edit to that
// file. The docs may cite only names the listing holds.
func TestPublicAPIPinned(t *testing.T) {
	lines, names := apiListing(t)
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile("testdata/api.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exported API differs from testdata/api.txt; the current listing is:\n%s", got)
	}

	ref := regexp.MustCompile(`\bvaq\.([A-Z][A-Za-z0-9_]*)`)
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ref.FindAllStringSubmatch(string(b), -1) {
			if !names[m[1]] {
				t.Errorf("%s cites vaq.%s, which package vaq does not export", doc, m[1])
			}
		}
	}
}
