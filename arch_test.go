package corundum_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestImportGraphLaws makes the layer boundaries law. Each row governs
// the module-internal imports of one package's non-test files: a row with
// only lists every import permitted, a row with deny lists packages that
// (with their subpackages) are forbidden.
func TestImportGraphLaws(t *testing.T) {
	const module = "corundum/"
	laws := []struct {
		dir  string
		only []string
		deny []string
		why  string
	}{
		{dir: "internal/client", only: []string{},
			why: "the client speaks the wire protocol and nothing else, so anything may import it"},
		{dir: "internal/bench", deny: []string{"internal/server", "internal/repl", "internal/explore", "internal/client"},
			why: "corundum-bench reproduces the paper's tables and figures; the server is measured by ./benchmark, out of process"},
		{dir: "internal/server", deny: []string{"internal/bench", "internal/explore", "internal/torture"},
			why: "the serving path must not depend on the harnesses that test it"},
		{dir: "internal/repl", only: []string{"internal/workloads"},
			why: "the change stream sits below the server: it carries ops and knows nothing of who feeds or reads it"},
		{dir: "internal/pmem", only: []string{"internal/obs"},
			why: "the device emulator is the bottom layer"},
		{dir: "internal/obs", only: []string{},
			why: "the observability substrate is dependency-free, so every layer can record into it"},
		{dir: "internal/pool", deny: []string{"internal/workloads", "internal/server", "internal/repl", "internal/core"},
			why: "the pool never imports upward"},
	}
	for _, law := range laws {
		files, err := filepath.Glob(filepath.Join(law.dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s holds no Go files (%v): the law is checking nothing", law.dir, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, internal := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), module)
				if !internal {
					continue
				}
				ok := law.only == nil || slices.Contains(law.only, path)
				for _, denied := range law.deny {
					ok = ok && path != denied && !strings.HasPrefix(path, denied+"/")
				}
				if !ok {
					t.Errorf("%s imports %s%s: %s", file, module, path, law.why)
				}
			}
		}
	}
}
