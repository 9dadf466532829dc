// Package check implements pmcheck, the build-time analyzer that restores
// Corundum's compile-time story in Go. Rust enforces PSafe, TxInSafe and
// TxOutSafe in the type checker; Go's type system cannot, so the library
// enforces them dynamically and this analyzer reports the same violations
// before the program runs. Running pmcheck in CI gives a Go project the
// same workflow the paper describes: PM-safety bugs are build failures,
// not crash-time surprises.
//
// Rules (each corresponds to a listing or invariant in the paper):
//
//	PM001  !PSafe type placed in a pool (Listing 3): a type passed to a
//	       persistent constructor contains a Go pointer, slice, map,
//	       string, chan, func, interface, or uintptr.
//	PM002  Transaction body writes a variable captured from the enclosing
//	       scope (Listing 2, TxInSafe): transactions must not modify
//	       pre-existing volatile state, or aborts cannot roll it back.
//	PM003  Journal escapes its transaction (TX-Journal-Only): the journal
//	       argument is stored into a captured variable or sent away.
//	PM004  Goroutine spawned inside a transaction (§3.9 "Threads in
//	       Transaction"): the goroutine outlives the transaction, so
//	       persistent pointers it captures may be orphaned. Hand the
//	       goroutine a VWeak instead.
//	PM005  unsafe or reflect used in a file that also uses the corundum
//	       API: all library guarantees assume no unsafe code (§3.1).
//	PM006  A persistent pointer type escapes a transaction through
//	       TransactionV's return value (TxOutSafe).
//	PM007  Transaction on pool tag P called lexically inside a transaction
//	       body on the same P: that opens a second, independent
//	       transaction rather than joining the caller's. Pass j to join.
//	       Nesting transactions on two different pools is fine.
//
// The analyzer is purely syntactic (go/ast) with same-package type
// resolution; it needs no build context, so it runs on any tree. It
// under-approximates a full type checker — aliasing through pointers can
// evade PM002 — but every corpus program drawn from the paper's listings
// is caught, which is the bar Table 2 measures.
package check

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos     token.Position
	Code    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Code, d.Message)
}

// persistentCtors are the core-API constructors whose first type argument
// must be PSafe.
var persistentCtors = map[string]bool{
	"NewPBox":  true,
	"NewPrc":   true,
	"NewParc":  true,
	"Open":     true,
	"NewPCell": true, "NewPRefCell": true, "NewPMutex": true,
}

// Source analyzes a single file's source text.
func Source(filename string, src []byte) ([]Diagnostic, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return File(fset, f), nil
}

// Dir analyzes every .go file under root (excluding _test data of other
// analyzers), returning diagnostics sorted by position.
func Dir(root string) ([]Diagnostic, error) {
	var all []Diagnostic
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		diags, err := Source(path, src)
		if err != nil {
			return err
		}
		all = append(all, diags...)
		return nil
	})
	sort.Slice(all, func(i, k int) bool {
		if all[i].Pos.Filename != all[k].Pos.Filename {
			return all[i].Pos.Filename < all[k].Pos.Filename
		}
		return all[i].Pos.Offset < all[k].Pos.Offset
	})
	return all, err
}

// File analyzes one parsed file.
func File(fset *token.FileSet, f *ast.File) []Diagnostic {
	c := &checker{fset: fset, file: f, structs: map[string]*ast.StructType{}}
	c.collectStructs()
	c.usesCorundum = fileImports(f, "corundum") || fileUsesAPI(f)
	c.run()
	return c.diags
}

type checker struct {
	fset         *token.FileSet
	file         *ast.File
	structs      map[string]*ast.StructType
	diags        []Diagnostic
	usesCorundum bool
}

func (c *checker) report(pos token.Pos, code, format string, args ...interface{}) {
	c.diags = append(c.diags, Diagnostic{
		Pos:     c.fset.Position(pos),
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	})
}

func (c *checker) collectStructs() {
	for _, decl := range c.file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			if st, ok := ts.Type.(*ast.StructType); ok {
				c.structs[ts.Name.Name] = st
			}
		}
	}
}

func (c *checker) run() {
	if c.usesCorundum {
		c.checkUnsafeImports()
	}
	ast.Inspect(c.file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, typeArgs := callee(call)
		if persistentCtors[name] && len(typeArgs) > 0 {
			c.checkPSafeExpr(typeArgs[0], typeArgs[0], nil)
		}
		if (name == "Transaction" || name == "TransactionV") && len(call.Args) == 1 {
			if body, ok := call.Args[0].(*ast.FuncLit); ok {
				c.checkTransactionBody(body)
				c.checkNestedSamePool(body, poolTag(typeArgs))
			}
		}
		if name == "TransactionV" && len(typeArgs) > 0 {
			c.checkTxOutExpr(typeArgs[0])
		}
		return true
	})
}

func (c *checker) checkUnsafeImports() {
	for _, imp := range c.file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path == "unsafe" || path == "reflect" {
			c.report(imp.Pos(), "PM005",
				"file uses the corundum API and imports %q: library safety guarantees assume no unsafe code (§3.1)", path)
		}
	}
}

// callee extracts the called function's base name and explicit type
// arguments, looking through selectors (core.NewPBox[T, P]).
func callee(call *ast.CallExpr) (string, []ast.Expr) {
	fun := call.Fun
	var typeArgs []ast.Expr
	switch e := fun.(type) {
	case *ast.IndexExpr:
		fun = e.X
		typeArgs = []ast.Expr{e.Index}
	case *ast.IndexListExpr:
		fun = e.X
		typeArgs = e.Indices
	}
	switch e := fun.(type) {
	case *ast.Ident:
		return e.Name, typeArgs
	case *ast.SelectorExpr:
		return e.Sel.Name, typeArgs
	}
	return "", nil
}

// --- PM001: PSafe ---------------------------------------------------------

// persistentWrappers are library types that are PSafe even though they
// look like references (they hold pool offsets, not Go pointers).
var persistentWrappers = map[string]bool{
	"PBox": true, "Prc": true, "Parc": true, "PWeak": true,
	"ParcWeak": true, "PCell": true, "PRefCell": true, "PMutex": true,
	"PString": true, "PVec": true, "Root": true,
}

// volatileHandles are library types that are pointer-free (so the
// structural rules would accept them) but must never be stored in a pool:
// their pool-generation binding dies with the process.
var volatileHandles = map[string]bool{
	"VWeak": true, "ParcVWeak": true,
}

func (c *checker) checkPSafeExpr(root, t ast.Expr, path []string) {
	switch e := t.(type) {
	case *ast.StarExpr:
		c.reportPSafe(root, path, "Go pointer")
	case *ast.ArrayType:
		if e.Len == nil {
			c.reportPSafe(root, path, "slice")
			return
		}
		c.checkPSafeExpr(root, e.Elt, append(path, "[]"))
	case *ast.MapType:
		c.reportPSafe(root, path, "map")
	case *ast.ChanType:
		c.reportPSafe(root, path, "channel")
	case *ast.FuncType:
		c.reportPSafe(root, path, "function value")
	case *ast.InterfaceType:
		c.reportPSafe(root, path, "interface")
	case *ast.IndexExpr, *ast.IndexListExpr:
		// A generic instantiation: persistent wrappers are PSafe; local
		// generic structs are resolved and walked (their type-parameter
		// fields are unresolvable and accepted — the runtime check covers
		// them); instantiations from other packages cannot be resolved
		// syntactically and are left to the runtime check.
		var base ast.Expr
		if ie, ok := e.(*ast.IndexExpr); ok {
			base = ie.X
		} else {
			base = e.(*ast.IndexListExpr).X
		}
		name := baseName(base)
		if volatileHandles[name] {
			c.reportPSafe(root, path, name+" (a volatile weak pointer; store a PWeak in the pool instead)")
			return
		}
		if persistentWrappers[name] {
			return
		}
		if id, ok := base.(*ast.Ident); ok {
			if st, found := c.structs[id.Name]; found {
				c.checkPSafeExpr(root, st, append(path, id.Name))
				return
			}
			c.reportPSafe(root, path, fmt.Sprintf("unresolved generic type %s", name))
		}
		// Selector-qualified (other package): accepted here.
	case *ast.SelectorExpr:
		if persistentWrappers[e.Sel.Name] {
			return
		}
		// A type from another package: unresolvable syntactically; accept.
	case *ast.StructType:
		for _, field := range e.Fields.List {
			names := fieldNames(field)
			c.checkPSafeExpr(root, field.Type, append(path, names))
		}
	case *ast.Ident:
		switch e.Name {
		case "string":
			c.reportPSafe(root, path, "string (its bytes live on the volatile heap; use PString)")
		case "uintptr":
			c.reportPSafe(root, path, "uintptr")
		case "bool", "byte", "rune",
			"int", "int8", "int16", "int32", "int64",
			"uint", "uint8", "uint16", "uint32", "uint64",
			"float32", "float64", "complex64", "complex128":
			return
		default:
			if st, ok := c.structs[e.Name]; ok {
				c.checkPSafeExpr(root, st, append(path, e.Name))
			}
		}
	}
}

func baseName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

func fieldNames(f *ast.Field) string {
	var names []string
	for _, n := range f.Names {
		names = append(names, n.Name)
	}
	return strings.Join(names, ",")
}

func (c *checker) reportPSafe(root ast.Expr, path []string, what string) {
	loc := exprString(root)
	if len(path) > 1 {
		loc += "." + strings.Join(path[1:], ".")
	}
	c.report(root.Pos(), "PM001",
		"type %s is not PSafe: it contains a %s, which is meaningless after restart (Listing 3)", loc, what)
}

func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.StructType:
		return "struct{...}"
	default:
		return fmt.Sprintf("%T", e)
	}
}

// --- PM002/PM003/PM004: transaction body rules -----------------------------

func (c *checker) checkTransactionBody(body *ast.FuncLit) {
	local := map[string]bool{"_": true}
	// Parameters (including the journal) are local.
	var journalNames []string
	for _, p := range body.Type.Params.List {
		for _, n := range p.Names {
			local[n.Name] = true
			journalNames = append(journalNames, n.Name)
		}
	}
	// First pass: everything declared anywhere inside the body is local.
	// (Go scoping is finer-grained, but treating the body as one scope
	// only under-reports, never false-positives.)
	ast.Inspect(body.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				for _, lhs := range s.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						local[id.Name] = true
					}
				}
			}
		case *ast.GenDecl:
			if s.Tok == token.VAR || s.Tok == token.CONST {
				for _, spec := range s.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, n := range vs.Names {
							local[n.Name] = true
						}
					}
				}
			}
		case *ast.RangeStmt:
			if s.Tok == token.DEFINE {
				if id, ok := s.Key.(*ast.Ident); ok {
					local[id.Name] = true
				}
				if id, ok := s.Value.(*ast.Ident); ok {
					local[id.Name] = true
				}
			}
		case *ast.FuncLit:
			for _, p := range s.Type.Params.List {
				for _, n := range p.Names {
					local[n.Name] = true
				}
			}
		case *ast.TypeSwitchStmt, *ast.SelectStmt:
			// Bindings inside are rare in tx bodies; covered by AssignStmt.
		}
		return true
	})

	// isJournal reports whether e IS the journal (possibly parenthesized),
	// not merely an expression that mentions it — call results computed
	// from the journal are ordinary values.
	var isJournal func(e ast.Expr) bool
	isJournal = func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.Ident:
			for _, j := range journalNames {
				if x.Name == j {
					return true
				}
			}
		case *ast.ParenExpr:
			return isJournal(x.X)
		case *ast.UnaryExpr:
			return isJournal(x.X)
		}
		return false
	}

	// Second pass: flag captured writes, journal escapes, go statements.
	ast.Inspect(body.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if s.Tok == token.DEFINE {
				return true
			}
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || local[id.Name] {
					continue
				}
				if i < len(s.Rhs) && isJournal(s.Rhs[i]) {
					c.report(s.Pos(), "PM003",
						"journal %q escapes the transaction via captured variable %q: journals are only valid inside their transaction (TX-Journal-Only)", journalNames, id.Name)
					continue
				}
				c.report(s.Pos(), "PM002",
					"transaction body writes captured variable %q: transactions cannot modify pre-existing volatile state, so this write would survive an abort (Listing 2, TxInSafe)", id.Name)
			}
		case *ast.IncDecStmt:
			if id, ok := s.X.(*ast.Ident); ok && !local[id.Name] {
				c.report(s.Pos(), "PM002",
					"transaction body writes captured variable %q: transactions cannot modify pre-existing volatile state (Listing 2, TxInSafe)", id.Name)
			}
		case *ast.GoStmt:
			c.report(s.Pos(), "PM004",
				"goroutine spawned inside a transaction: it outlives the transaction, so captured persistent pointers may be orphaned; pass a VWeak and Promote it in the goroutine's own transaction (§3.9)")
		}
		return true
	})
}

// poolTag renders the pool tag of a Transaction[P] or TransactionV[T, P]
// call — its last explicit type argument — or "" when it is inferred.
func poolTag(typeArgs []ast.Expr) string {
	if len(typeArgs) == 0 {
		return ""
	}
	switch tag := typeArgs[len(typeArgs)-1].(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return exprString(tag)
	}
	return ""
}

// checkNestedSamePool flags Transaction calls on pool tag inside body, a
// transaction body on that same tag. It does not descend into a flagged
// call: that call's own body is checked in its own right.
func (c *checker) checkNestedSamePool(body *ast.FuncLit, tag string) {
	if tag == "" {
		return
	}
	ast.Inspect(body.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, typeArgs := callee(call)
		if (name != "Transaction" && name != "TransactionV") || poolTag(typeArgs) != tag {
			return true
		}
		c.report(call.Pos(), "PM007",
			"%s on pool %s inside a transaction on the same pool: pass j — this opens a second, independent transaction (its own journal slot, its own commit), it does not join the caller's", name, tag)
		return false
	})
}

// checkTxOutExpr flags persistent pointer types named as TransactionV's
// return type (the syntactic half of TxOutSafe; the runtime check is the
// backstop for inferred instantiations).
func (c *checker) checkTxOutExpr(t ast.Expr) {
	switch e := t.(type) {
	case *ast.IndexExpr:
		if persistentWrappers[baseName(e.X)] {
			c.report(t.Pos(), "PM006",
				"persistent pointer type %s escapes the transaction via TransactionV's return value (TxOutSafe): return a copy of the data or a VWeak", baseName(e.X))
		}
	case *ast.IndexListExpr:
		if persistentWrappers[baseName(e.X)] {
			c.report(t.Pos(), "PM006",
				"persistent pointer type %s escapes the transaction via TransactionV's return value (TxOutSafe): return a copy of the data or a VWeak", baseName(e.X))
		}
	}
}

func fileImports(f *ast.File, prefix string) bool {
	for _, imp := range f.Imports {
		if strings.Contains(strings.Trim(imp.Path.Value, `"`), prefix) {
			return true
		}
	}
	return false
}

// fileUsesAPI detects corundum API usage without imports (dot-import or
// same-package use).
func fileUsesAPI(f *ast.File) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			name, _ := callee(call)
			if name == "Transaction" || persistentCtors[name] {
				found = true
			}
		}
		return !found
	})
	return found
}
