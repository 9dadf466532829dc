package check

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCorpus runs pmcheck over every testdata program and compares the
// diagnostics against the `// want PMxxx` expectations in the source, the
// same convention go/analysis uses. The corpus encodes the paper's
// listings, so this test is the reproduction of "the compiler rejects
// Listings 2-4".
func TestCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 6 {
		t.Fatalf("corpus too small: %d files", len(files))
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			want := parseExpectations(t, src)
			diags, err := Source(file, src)
			if err != nil {
				t.Fatal(err)
			}
			got := map[int][]string{}
			for _, d := range diags {
				got[d.Pos.Line] = append(got[d.Pos.Line], d.Code)
			}
			for line, codes := range want {
				for _, code := range codes {
					if !contains(got[line], code) {
						t.Errorf("line %d: expected %s, got %v", line, code, got[line])
					}
				}
			}
			for line, codes := range got {
				if len(codes) != len(want[line]) {
					t.Errorf("line %d: got %v, want %v (each diagnostic once)", line, codes, want[line])
				}
				for _, code := range codes {
					if !contains(want[line], code) {
						t.Errorf("line %d: unexpected diagnostic %s", line, code)
					}
				}
			}
		})
	}
}

func parseExpectations(t *testing.T, src []byte) map[int][]string {
	t.Helper()
	want := map[int][]string{}
	sc := bufio.NewScanner(bytes.NewReader(src))
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		idx := strings.Index(text, "// want ")
		if idx < 0 {
			continue
		}
		for _, code := range strings.Fields(text[idx+len("// want "):]) {
			if strings.HasPrefix(code, "PM") {
				want[line] = append(want[line], code)
			}
		}
	}
	return want
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

func TestDirWalksTree(t *testing.T) {
	diags, err := Dir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("Dir found no diagnostics in the corpus")
	}
	// Sorted by file then offset.
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename > b.Pos.Filename || (a.Pos.Filename == b.Pos.Filename && a.Pos.Offset > b.Pos.Offset) {
			t.Fatalf("diagnostics out of order: %v before %v", a, b)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	diags, err := Source("x.go", []byte(`package x
func f() {
	done := false
	_ = Transaction(func(j *J) error {
		done = true
		return nil
	})
	_ = done
}
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1", len(diags))
	}
	s := diags[0].String()
	if !strings.Contains(s, "PM002") || !strings.Contains(s, "x.go:5") {
		t.Fatalf("bad diagnostic string: %s", s)
	}
}

func TestLocalVariablesNotFlagged(t *testing.T) {
	diags, err := Source("x.go", []byte(`package x
func f() {
	_ = Transaction(func(j *J) error {
		sum := 0
		for i := 0; i < 3; i++ {
			sum += i
		}
		var v int
		v = sum
		_ = v
		return nil
	})
}
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("local mutations flagged: %v", diags)
	}
}

func TestRangeAndNestedClosureLocals(t *testing.T) {
	diags, err := Source("x.go", []byte(`package x
func f(items []int) {
	_ = Transaction(func(j *J) error {
		total := 0
		for idx, val := range items {
			total += idx + val
		}
		add := func(n int) { total += n }
		add(1)
		return nil
	})
}
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("false positives: %v", diags)
	}
}

func TestReadingCapturedIsAllowed(t *testing.T) {
	// The paper: "Pre-existing volatile data can be read."
	diags, err := Source("x.go", []byte(`package x
func f() {
	limit := 10
	_ = Transaction(func(j *J) error {
		v := limit * 2
		_ = v
		return nil
	})
}
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("captured read flagged: %v", diags)
	}
}

// TestCrossPoolNestingIsNotPM007: nesting transactions on two different
// pool tags (the only lexical nesting in the tree) is not a same-pool
// nested transaction.
func TestCrossPoolNestingIsNotPM007(t *testing.T) {
	const file = "../core/testdata/crosspool/main.go"
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Source(file, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Code == "PM007" {
			t.Errorf("%s", d)
		}
	}
}

// TestDogfood: the repository's own examples and container library must be
// clean under pmcheck (non-test files; tests legitimately capture results
// for assertions).
func TestDogfood(t *testing.T) {
	for _, dir := range []string{"../../examples", "../containers", "../workloads/wordcount"} {
		diags, err := Dir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			if strings.HasSuffix(d.Pos.Filename, "_test.go") {
				continue
			}
			t.Errorf("%s", d)
		}
	}
}
