package lint

import (
	"go/ast"
	"go/types"
)

// MutexCopyAnalyzer flags functions whose receivers, parameters, or
// results carry a sync lock (Mutex, RWMutex, WaitGroup, Once, Cond, Pool,
// Map) by value. A copied lock guards nothing: two goroutines "sharing" a
// copied mutex serialize against different locks, which in this codebase
// means torn checkpoint state under concurrency. go vet's copylocks
// catches assignments; this pass covers declared signatures.
var MutexCopyAnalyzer = &Analyzer{
	Name: "mutexcopy",
	Doc:  "flag receivers, parameters, and results that carry a sync lock by value",
	Run:  runMutexCopy,
}

func runMutexCopy(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			check := func(fl *ast.FieldList, kind string) {
				if fl == nil {
					return
				}
				for _, field := range fl.List {
					t := pass.Pkg.Info.TypeOf(field.Type)
					if lock := lockIn(t, nil); lock != "" {
						pass.Reportf(field.Type.Pos(),
							"%s of %s carries sync.%s by value; the copy guards nothing — pass a pointer",
							kind, fd.Name.Name, lock)
					}
				}
			}
			check(fd.Recv, "receiver")
			if fd.Type.Params != nil {
				check(fd.Type.Params, "parameter")
			}
			if fd.Type.Results != nil {
				check(fd.Type.Results, "result")
			}
		}
	}
}

// lockIn returns the name of a sync lock type contained by value in t
// ("" if none). Pointers, slices, maps, channels, and interfaces break
// containment: they share the lock rather than copying it.
func lockIn(t types.Type, seen map[types.Type]bool) string {
	if t == nil || seen[t] {
		return ""
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		if obj := named.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Pool", "Map":
				return obj.Name()
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if lock := lockIn(u.Field(i).Type(), seen); lock != "" {
				return lock
			}
		}
	case *types.Array:
		return lockIn(u.Elem(), seen)
	}
	return ""
}
