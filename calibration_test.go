package dcnr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// calibrationIdent is the form a Code-column span takes: pkg.Name or
// pkg.Type.Member, an optional […] suffix, then /-separated siblings that
// replace the last component (fleet.FirstYear/LastYear).
var calibrationIdent = regexp.MustCompile(`^[a-z][a-z0-9]*(\.[A-Za-z_]\w*){1,2}(\[[^\]]*\])?(/[A-Za-z_]\w*(\[[^\]]*\])?)*$`)

// TestCalibrationCodeColumnResolves checks that every backticked span in
// CALIBRATION.md's Code columns names a declaration in internal/<pkg> (a
// top-level name, or a field or method of a top-level type), or a Go file
// in some internal package, so a rename cannot leave the table stale.
func TestCalibrationCodeColumnResolves(t *testing.T) {
	doc, err := os.ReadFile("CALIBRATION.md")
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]map[string]bool{}
	resolved := 0
	for _, line := range strings.Split(string(doc), "\n") {
		if !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		code := cells[len(cells)-1]
		spans := strings.Split(code, "`")
		for i := 1; i < len(spans); i += 2 {
			span := spans[i]
			switch {
			case strings.HasSuffix(span, ".go"):
				if m, _ := filepath.Glob(filepath.Join("internal", "*", span)); len(m) == 0 {
					t.Errorf("%s: no such file in any internal package", span)
				}
			case calibrationIdent.MatchString(span):
				for _, name := range calibrationNames(span) {
					pkg, rest, _ := strings.Cut(name, ".")
					if decls[pkg] == nil {
						decls[pkg] = packageDecls(t, pkg)
					}
					if !decls[pkg][rest] {
						t.Errorf("%s (in %s): no such declaration in internal/%s", name, span, pkg)
					}
					resolved++
				}
			default:
				t.Errorf("%q in the Code column is neither pkg.Name[.Member] nor a .go file", span)
			}
		}
	}
	if resolved < 20 {
		t.Errorf("resolved only %d names; is the table still parsed?", resolved)
	}
}

// calibrationNames expands a span into the qualified names it mentions,
// with […] suffixes dropped: "fleet.A/B[1]" → fleet.A, fleet.B.
func calibrationNames(span string) []string {
	parts := strings.Split(span, "/")
	head, _, _ := strings.Cut(parts[0], "[")
	prefix := head[:strings.LastIndex(head, ".")+1]
	names := []string{head}
	for _, p := range parts[1:] {
		p, _, _ = strings.Cut(p, "[")
		names = append(names, prefix+p)
	}
	return names
}

// packageDecls parses internal/pkg's non-test files, without type
// checking, into the set of its top-level names plus Type.Field and
// Type.Method for each of its types.
func packageDecls(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("internal/%s: no Go files", pkg)
	}
	names := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					names[id.Name+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.ValueSpec:
						for _, id := range s.Names {
							names[id.Name] = true
						}
					case *ast.TypeSpec:
						names[s.Name.Name] = true
						st, ok := s.Type.(*ast.StructType)
						if !ok {
							continue
						}
						for _, field := range st.Fields.List {
							for _, id := range field.Names {
								names[s.Name.Name+"."+id.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return names
}
