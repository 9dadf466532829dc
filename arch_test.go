package corundum_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
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
		{dir: "internal/histcheck", only: []string{},
			why: "the client-visible contract is judged from what clients observed, never from the code under test"},
		{dir: "internal/bench", deny: []string{"internal/server", "internal/repl", "internal/explore", "internal/client"},
			why: "corundum-bench reproduces the paper's tables and figures; the server is measured by ./benchmark, out of process"},
		{dir: "internal/server", deny: []string{"internal/bench", "internal/explore", "internal/torture"},
			why: "the serving path must not depend on the harnesses that test it"},
		{dir: "internal/repl", only: []string{"internal/workloads", "internal/crc"},
			why: "the change stream sits below the server: it carries ops and knows nothing of who feeds or reads it"},
		{dir: "internal/pmem", only: []string{"internal/obs"},
			why: "the device emulator is the bottom layer"},
		{dir: "internal/obs", only: []string{},
			why: "the observability substrate is dependency-free, so every layer can record into it"},
		{dir: "internal/crc", only: []string{},
			why: "the heap-free checksum is a leaf, so every persistent layer can use it"},
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

// TestRootBenchmarksOnlyDriveBench makes law that the paper's rows are
// written once. The root's `go test -bench` file runs the internal/bench
// entries corundum-bench prints; importing another module package, or
// timing with its own clock, would be a second implementation of a row.
func TestRootBenchmarksOnlyDriveBench(t *testing.T) {
	const file = "bench_test.go"
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	f, err := parser.ParseFile(token.NewFileSet(), file, src, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	var imports []string
	for _, imp := range f.Imports {
		if path := strings.Trim(imp.Path.Value, `"`); path == "time" || strings.HasPrefix(path, "corundum/") {
			imports = append(imports, path)
		}
	}
	if !slices.Equal(imports, []string{"corundum/internal/bench"}) || bytes.Contains(src, []byte("StartTimer")) || bytes.Contains(src, []byte("StopTimer")) {
		t.Errorf("%s imports %v or toggles the timer: a paper row's code and clock live in internal/bench alone", file, imports)
	}
}

// TestUnsafeAddrOnlyInCore makes the one exception to the device's access
// rule law. Every load and store of persistent memory is a pmem.Device
// method, except through the address Device.UnsafeAddr returns, which the
// typed layer in internal/core needs to hand out *T. Stores through that
// address are invisible to the crash model, so no non-test file outside
// internal/core may select UnsafeAddr.
func TestUnsafeAddrOnlyInCore(t *testing.T) {
	core := filepath.Join("internal", "core")
	fset := token.NewFileSet()
	files, coreCalls := 0, 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "UnsafeAddr" {
				if filepath.Dir(path) == core {
					coreCalls++
				} else {
					t.Errorf("%s selects UnsafeAddr: only internal/core may take an address into device memory; use the device's Load/Store methods", fset.Position(sel.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 || coreCalls == 0 {
		t.Fatalf("parsed %d files and found %d UnsafeAddr calls in %s: the law is checking nothing", files, coreCalls, core)
	}
}

// TestGofmtClean makes gofmt law: every Go file in the module, test files
// and testdata included, must be exactly what go/format makes of it (what
// `gofmt -l .` checks in CI).
func TestGofmtClean(t *testing.T) {
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		files++
		if err := gofmtClean(path); err != nil {
			t.Error(err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("found no Go files: the law is checking nothing")
	}
}

// gofmtClean reports why the Go file at path is not gofmt-clean, or nil.
func gofmtClean(path string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	out, err := format.Source(src)
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	if !bytes.Equal(out, src) {
		return fmt.Errorf("%s is not gofmt-clean: run gofmt -w %s", path, path)
	}
	return nil
}

// TestGofmtCleanCatchesMisformat plants a misformatted file, so the law
// above cannot pass by checking nothing.
func TestGofmtCleanCatchesMisformat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "planted.go")
	if err := os.WriteFile(path, []byte("package planted\nfunc  f( ) {}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := gofmtClean(path); err == nil {
		t.Fatal("a misformatted file passed the gofmt check")
	}
}
