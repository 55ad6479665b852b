package rmmap

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestOptionsFieldsHaveCallers guards platform.Options against knob creep:
// every field must be set by some non-test file outside internal/platform,
// as a `Field:` composite-literal key or a `.Field =` assignment. A field
// only the platform's own tests set doubles the configurations tier-1
// covers without a caller needing it: delete it with the path behind it,
// or make it unexported engine state the in-package test sets.
func TestOptionsFieldsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	var fields []string
	platform, err := filepath.Glob(filepath.Join("internal", "platform", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range platform {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Options" {
				return true
			}
			for _, fl := range ts.Type.(*ast.StructType).Fields.List {
				for _, name := range fl.Names {
					fields = append(fields, name.Name)
				}
			}
			return false
		})
	}
	if len(fields) == 0 {
		t.Fatal("platform.Options not found")
	}

	set := map[string]bool{}
	for _, root := range []string{"cmd", "internal", "examples", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == filepath.Join("internal", "platform") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						set[id.Name] = true
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							set[sel.Sel.Name] = true
						}
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var unset []string
	for _, f := range fields {
		if !set[f] {
			unset = append(unset, f)
		}
	}
	if len(unset) > 0 {
		slices.Sort(unset)
		t.Errorf("platform.Options fields with no non-test setter outside internal/platform: %v", unset)
	}
}
