package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerGlobalstate flags package-level mutable state in library
// packages — the hazard class of a process-wide default worker override:
// a process-global that concurrent server requests race on, or that makes
// output depend on call history. A package-level var is reported when any function writes
// it (direct assignment, element/field assignment, ++/--, or a mutating
// method call: Add, Store, Swap, Delete, ...) outside the sanctioned
// sites: init functions, and Register*/register* functions (open
// registries are published at init time by contract). sync.Pool and
// sync.Once globals are exempt — pools are order-free scratch reuse and
// Once.Do is its own discipline. Deliberate process-globals (memo caches
// with deterministic content) carry a
// //lint:allow globalstate pragma at the write site.
var AnalyzerGlobalstate = &Analyzer{
	Name: "globalstate",
	Doc: "forbid new package-level mutable state in library packages: " +
		"globals may be written only from init and Register* functions; " +
		"everything else threads state explicitly or documents itself with " +
		"//lint:allow globalstate",
	Run: runGlobalstate,
}

// mutatingMethods are method names that write their receiver on the
// sync/atomic container types (atomic.Int64, atomic.Pointer, sync.Map).
var mutatingMethods = map[string]bool{
	"Add": true, "Store": true, "Swap": true, "CompareAndSwap": true,
	"CompareAndDelete": true, "Delete": true, "LoadOrStore": true,
	"LoadAndDelete": true, "Clear": true,
}

func runGlobalstate(pass *Pass) error {
	if !strings.Contains(pass.Pkg.Path(), "/internal/") && !isFixturePath(pass.Pkg.Path()) {
		return nil // commands and scripts own their process; libraries don't
	}
	globals := packageLevelVars(pass)
	if len(globals) == 0 {
		return nil
	}
	forEachFuncDecl(pass.Files, func(fd *ast.FuncDecl) {
		if sanctionedWriter(fd) {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range stmt.Lhs {
					if obj := globalRoot(pass, globals, lhs); obj != nil {
						pass.Reportf(stmt.Pos(), "package-level %q is written outside init/Register; thread the state explicitly", obj.Name())
					}
				}
			case *ast.IncDecStmt:
				if obj := globalRoot(pass, globals, stmt.X); obj != nil {
					pass.Reportf(stmt.Pos(), "package-level %q is written outside init/Register; thread the state explicitly", obj.Name())
				}
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(stmt.Fun).(*ast.SelectorExpr); ok && mutatingMethods[sel.Sel.Name] {
					if s, okS := pass.Info.Selections[sel]; okS && s.Kind() == types.MethodVal {
						if obj := globalRoot(pass, globals, sel.X); obj != nil {
							pass.Reportf(stmt.Pos(), "package-level %q is mutated via %s outside init/Register; thread the state explicitly", obj.Name(), sel.Sel.Name)
						}
					}
				}
			}
			return true
		})
	})
	return nil
}

// isFixturePath admits the analyzer's own testdata packages, whose import
// paths live under testdata/src rather than internal/.
func isFixturePath(path string) bool {
	return strings.Contains(path, "/testdata/src/")
}

// packageLevelVars collects the package's mutable top-level variables,
// excluding the exempt container types.
func packageLevelVars(pass *Pass) map[types.Object]bool {
	globals := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj := pass.Info.Defs[name]
					if obj == nil || name.Name == "_" {
						continue
					}
					if _, isVar := obj.(*types.Var); !isVar {
						continue // consts are immutable by construction
					}
					if exemptGlobalType(obj.Type()) {
						continue
					}
					globals[obj] = true
				}
			}
		}
	}
	return globals
}

// exemptGlobalType exempts sync.Pool and sync.Once (and pointers to them).
func exemptGlobalType(t types.Type) bool {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	return namedFrom(t, "sync", "Pool") || namedFrom(t, "sync", "Once")
}

// sanctionedWriter reports whether the function may legitimately write
// package state: init, or a registry-publication function.
func sanctionedWriter(fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	if fd.Recv == nil && name == "init" {
		return true
	}
	for _, prefix := range []string{"Register", "register", "MustRegister", "mustRegister"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// globalRoot resolves an expression's base identifier to a tracked
// package-level var (nil otherwise).
func globalRoot(pass *Pass, globals map[types.Object]bool, e ast.Expr) types.Object {
	root := rootIdent(e)
	if root == nil {
		return nil
	}
	if obj := objOf(pass.Info, root); obj != nil && globals[obj] {
		return obj
	}
	return nil
}
