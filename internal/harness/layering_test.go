package harness

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSimulatorImportsNoServingPackage holds the layering rule: the
// simulator packages report what a run did as values (EngineStats,
// heap.Stats, the profiler's counts) and never reach up into the serving
// side. The harness is the one place that turns a finished run into
// telemetry. The walk follows module imports transitively over non-test
// sources, so a forbidden package reached through a helper fails too.
func TestSimulatorImportsNoServingPackage(t *testing.T) {
	const module = "metajit/internal/"
	simulator := []string{"cpu", "isa", "core", "heap", "aot", "mtjit", "pylang", "sklang", "pintool", "profile", "jitlog", "trace", "static"}
	forbidden := map[string]bool{"telemetry": true, "reqtrace": true, "cluster": true, "harness": true}

	imports := map[string][]string{} // package -> module packages it imports
	var load func(pkg string)
	load = func(pkg string) {
		if _, ok := imports[pkg]; ok {
			return
		}
		imports[pkg] = nil
		dir := filepath.Join("..", pkg)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(dir, name), nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				if dep, ok := strings.CutPrefix(path, module); ok {
					imports[pkg] = append(imports[pkg], dep)
					load(dep)
				}
			}
		}
	}
	// reaches returns the import chain from pkg to a forbidden package,
	// or nil.
	var reaches func(pkg string, seen map[string]bool) []string
	reaches = func(pkg string, seen map[string]bool) []string {
		if forbidden[pkg] {
			return []string{pkg}
		}
		if seen[pkg] {
			return nil
		}
		seen[pkg] = true
		for _, dep := range imports[pkg] {
			if chain := reaches(dep, seen); chain != nil {
				return append([]string{pkg}, chain...)
			}
		}
		return nil
	}
	for _, pkg := range simulator {
		load(pkg)
		if len(imports[pkg]) == 0 && pkg != "core" && pkg != "isa" {
			t.Errorf("internal/%s imports no module package: is the walk reading its sources?", pkg)
		}
		if chain := reaches(pkg, map[string]bool{}); chain != nil {
			t.Errorf("internal/%s reaches a serving package: %s", pkg, strings.Join(chain, " -> "))
		}
	}
}
