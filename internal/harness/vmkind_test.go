package harness

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
)

// TestParseVMKindCoversEveryKind reads the VMKind constants out of
// harness.go and requires ParseVMKind — a lookup in vmTable, which Run
// reads too — to round-trip each one, so a new kind cannot be declared
// without becoming runnable and servable. (The cluster's own
// table once stopped at seven kinds while the harness had nine.)
func TestParseVMKindCoversEveryKind(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "harness.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "VMKind" {
			return true
		}
		for _, v := range vs.Values {
			lit, ok := v.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Fatalf("VMKind constant %v is not a string literal", vs.Names)
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, name)
		}
		return true
	})
	if len(names) < 9 {
		t.Fatalf("found %d VMKind constants in harness.go, want at least 9: %v", len(names), names)
	}
	for _, name := range names {
		if kind, err := ParseVMKind(name); err != nil || string(kind) != name {
			t.Errorf("ParseVMKind(%q) = %q, %v", name, kind, err)
		}
	}
	if len(vmTable) != len(names) {
		t.Errorf("vmTable has %d rows, harness.go declares %d kinds", len(vmTable), len(names))
	}
	if _, err := ParseVMKind("jvm"); err == nil {
		t.Error("ParseVMKind accepted an unknown name")
	}
}
