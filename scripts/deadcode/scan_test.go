//go:build deadcode

// Package deadcode holds the reachability gate over internal/: a go/types
// scan that marks every declaration a binary, an example or a bench row can
// run, and fails on any other declaration unless allow.txt names an owner
// for it. It is test code behind a build tag, so it adds no lines to the
// program and tier 1 never runs it:
//
//	go test -tags deadcode ./scripts/deadcode/
package deadcode

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// config says what one scan loads and what it checks.
type config struct {
	root    string   // directory of the module
	module  string   // its module path
	roots   []string // directories (under root) whose packages' main and init functions run
	scanned string   // directory (under root) whose declarations are checked
}

// decl is one top-level declaration — a func, method, type, var or const —
// of a scanned package, or one field of a struct type it declares.
type decl struct {
	name  string // "pkg.Name", "pkg.Type.Method" or "pkg.Type.field", pkg relative to config.scanned
	pos   token.Position
	lines int  // with its doc comment
	field bool // a struct field, rather than a declaration
	knob  bool // a configuration field only its own package sets
}

// result is what a scan finds.
type result struct {
	unreached []decl // sorted by name
	lines     int    // the unreached declarations' lines, doc comments included
	ownOnly   int    // exported scanned names no other package uses
	unread    []decl // unexported struct fields no code reads, sorted by name
	knobs     []decl // configuration fields reached code reads and only their own package sets, sorted by name
}

// pkg is one type-checked package of the module (non-test files only).
type pkg struct {
	path  string
	bp    *build.Package // what go/build found in its directory, test files included
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// program loads the module's packages from source, one *types.Package per
// import path, so an object has one identity whichever package reaches it.
type program struct {
	cfg     config
	fset    *token.FileSet
	std     types.Importer
	ctxt    build.Context
	pkgs    map[string]*pkg
	loading map[string]bool
}

func newProgram(cfg config) *program {
	fset := token.NewFileSet()
	// The source importer type-checks the standard library with
	// build.Default; without cgo it needs no C toolchain and no network.
	build.Default.CgoEnabled = false
	ctxt := build.Default
	return &program{
		cfg:     cfg,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		ctxt:    ctxt,
		pkgs:    map[string]*pkg{},
		loading: map[string]bool{},
	}
}

func (p *program) inModule(importPath string) bool {
	return importPath == p.cfg.module || strings.HasPrefix(importPath, p.cfg.module+"/")
}

// Import implements types.Importer.
func (p *program) Import(importPath string) (*types.Package, error) {
	if !p.inModule(importPath) {
		return p.std.Import(importPath)
	}
	pk, err := p.load(importPath)
	if err != nil {
		return nil, err
	}
	return pk.types, nil
}

func (p *program) load(importPath string) (*pkg, error) {
	if pk, ok := p.pkgs[importPath]; ok {
		return pk, nil
	}
	if p.loading[importPath] {
		return nil, fmt.Errorf("import cycle through %s", importPath)
	}
	dir := filepath.Join(p.cfg.root, filepath.FromSlash(strings.TrimPrefix(importPath, p.cfg.module)))
	bp, err := p.ctxt.ImportDir(dir, 0)
	if _, ok := err.(*build.NoGoError); ok && len(bp.IgnoredGoFiles) == 0 {
		return nil, err // no Go file; a directory of files behind a build tag loads empty
	} else if err != nil && !ok {
		return nil, fmt.Errorf("%s: %w", importPath, err)
	}
	p.loading[importPath] = true
	pk := &pkg{path: importPath, bp: bp, info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		pk.files = append(pk.files, f)
	}
	conf := types.Config{Importer: p}
	pk.types, err = conf.Check(importPath, p.fset, pk.files, pk.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", importPath, err)
	}
	p.pkgs[importPath] = pk
	return pk, nil
}

// loadTree loads every package in the directories under rel (testdata,
// dot directories and directories without Go files skipped) and returns them.
func (p *program) loadTree(rel string) ([]*pkg, error) {
	var out []*pkg
	start := filepath.Join(p.cfg.root, rel)
	err := filepath.WalkDir(start, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" || dir != start && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		sub, _ := filepath.Rel(p.cfg.root, dir) // dir is under the root
		pk, err := p.load(path.Join(p.cfg.module, filepath.ToSlash(sub)))
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err == nil {
			out = append(out, pk)
		}
		return err
	})
	return out, err
}

// node is what one declared object's declaration refers to.
type node struct {
	refs []types.Object
	decl *decl // nil outside the scanned directory
}

// canon maps an object to the one the graph is keyed by: the generic
// origin of an instantiated function, method or field.
func canon(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// tracked reports whether the graph follows references to obj: package-level
// names and methods (interface methods included).
func tracked(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
		return true
	}
	return obj.Parent() == obj.Pkg().Scope()
}

// refsIn collects the tracked objects used anywhere under n.
func refsIn(info *types.Info, n ast.Node) []types.Object {
	if n == nil {
		return nil
	}
	var out []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; tracked(obj) {
				out = append(out, canon(obj))
			}
		}
		return true
	})
	return out
}

// scan runs the reachability analysis for p.cfg.
func scan(p *program) (*result, error) {
	cfg := p.cfg
	var rootPkgs []*pkg
	for _, r := range cfg.roots {
		pks, err := p.loadTree(r)
		if err != nil {
			return nil, err
		}
		rootPkgs = append(rootPkgs, pks...)
	}
	if _, err := p.loadTree(cfg.scanned); err != nil {
		return nil, err
	}
	scannedPrefix := cfg.module + "/" + filepath.ToSlash(cfg.scanned) + "/"

	nodes := map[types.Object]*node{}
	initRefs := map[*pkg][]types.Object{} // what loading the package runs
	var named []*types.TypeName           // every type the module declares
	for _, pk := range p.pkgs {
		scanned := strings.HasPrefix(pk.path+"/", scannedPrefix)
		rel := strings.TrimPrefix(pk.path, scannedPrefix)
		add := func(id *ast.Ident, refs []types.Object, from, to ast.Node) {
			obj := pk.info.Defs[id]
			if obj == nil {
				return
			}
			n := &node{refs: refs}
			if scanned && id.Name != "_" {
				start, end := p.fset.Position(from.Pos()), p.fset.Position(to.End())
				n.decl = &decl{name: rel + "." + declName(obj), pos: start, lines: end.Line - start.Line + 1}
			}
			nodes[obj] = n
		}
		for _, f := range pk.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					refs := refsIn(pk.info, d)
					if d.Recv == nil && d.Name.Name == "init" {
						initRefs[pk] = append(initRefs[pk], refs...)
						continue
					}
					add(d.Name, refs, docOr(d.Doc, d), d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						from := ast.Node(s)
						if len(d.Specs) == 1 {
							from = docOr(d.Doc, d)
						}
						switch s := s.(type) {
						case *ast.TypeSpec:
							if len(d.Specs) > 1 {
								from = docOr(s.Doc, s)
							}
							add(s.Name, refsIn(pk.info, s), from, s)
							if tn, ok := pk.info.Defs[s.Name].(*types.TypeName); ok {
								named = append(named, tn)
							}
						case *ast.ValueSpec:
							if len(d.Specs) > 1 {
								from = docOr(s.Doc, s)
							}
							refs := refsIn(pk.info, s.Type)
							for _, v := range s.Values {
								refs = append(refs, refsIn(pk.info, v)...)
							}
							if d.Tok == token.VAR && len(s.Values) > 0 {
								// A package-level initializer runs when
								// the package is loaded, whoever uses the var.
								initRefs[pk] = append(initRefs[pk], refs...)
							}
							for _, id := range s.Names {
								add(id, refs, from, s)
							}
						}
					}
				}
			}
		}
	}

	// Implicit interfaces: the standard library calls these methods on any
	// value of a type that has them (fmt, errors, sort, io, net...). A
	// method that satisfies a named interface of an imported standard
	// package, or error's conventional companions, runs once its type does.
	var stdIfaces []*types.Interface
	seen := map[*types.Package]bool{}
	for _, pk := range p.pkgs {
		for _, imp := range pk.types.Imports() {
			if p.inModule(imp.Path()) || seen[imp] {
				continue
			}
			seen[imp] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						stdIfaces = append(stdIfaces, it)
					}
				}
			}
		}
	}
	stdIfaces = append(stdIfaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	errorIface := stdIfaces[len(stdIfaces)-1]

	reached := map[types.Object]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		if obj != nil && !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}
	linked := map[*types.Package]bool{}
	var link func(tp *types.Package)
	link = func(tp *types.Package) {
		if linked[tp] || !p.inModule(tp.Path()) {
			return
		}
		linked[tp] = true
		pk := p.pkgs[tp.Path()]
		for _, obj := range initRefs[pk] {
			mark(obj)
		}
		for _, imp := range tp.Imports() {
			link(imp)
		}
	}
	for _, pk := range rootPkgs {
		link(pk.types)
		if obj := pk.types.Scope().Lookup("main"); obj != nil {
			mark(obj)
		}
	}

	dispatched := map[[2]types.Object]bool{}
	stdDone := map[*types.TypeName]bool{}
	for {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			if n := nodes[obj]; n != nil {
				for _, r := range n.refs {
					mark(r)
				}
			}
		}
		// Dispatch: a method of a reached type runs when an interface
		// method it satisfies is reached.
		var ifaceMethods []*types.Func
		for obj := range reached {
			if f, ok := obj.(*types.Func); ok && isInterfaceMethod(f) {
				ifaceMethods = append(ifaceMethods, f)
			}
		}
		for _, tn := range named {
			if !reached[tn] || types.IsInterface(tn.Type()) {
				continue
			}
			generic := tn.Type().(*types.Named).TypeParams().Len() > 0
			for _, im := range ifaceMethods {
				key := [2]types.Object{tn, im}
				if dispatched[key] {
					continue
				}
				dispatched[key] = true
				it := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
				if m := implementing(tn, it, im.Pkg(), im.Name(), generic); m != nil {
					mark(m)
				}
			}
			if stdDone[tn] {
				continue
			}
			stdDone[tn] = true
			for _, it := range stdIfaces {
				for i := 0; i < it.NumMethods(); i++ {
					im := it.Method(i)
					if m := implementing(tn, it, im.Pkg(), im.Name(), generic); m != nil {
						mark(m)
					}
				}
			}
			if implementing(tn, errorIface, nil, "Error", generic) != nil {
				for _, name := range []string{"Unwrap", "Is", "As"} {
					if m := methodOf(tn, nil, name); m != nil {
						mark(m)
					}
				}
			}
		}
		if len(work) == 0 {
			break
		}
	}

	res := &result{}
	for obj, n := range nodes {
		if n.decl == nil {
			continue
		}
		if !reached[obj] {
			res.unreached = append(res.unreached, *n.decl)
			res.lines += n.decl.lines
		}
	}
	sort.Slice(res.unreached, func(i, j int) bool { return res.unreached[i].name < res.unreached[j].name })
	res.ownOnly = countOwnOnly(p, nodes)
	res.unread = unreadFields(p, scannedPrefix)
	res.knobs = knobFields(p, scannedPrefix, reached, linked)
	return res, nil
}

// knobFields returns the exported fields of the scanned packages'
// configuration structs — a struct type named *Config, *Options or
// *Policy, or transparency.Env — that reached code reads while no reached
// code outside the field's own package writes it: a setting no binary,
// example or bench row can choose. A write is an assignment or increment
// through the field (x.F = v and x.F.G = v both write F), taking its
// address, or a keyed composite literal; an unkeyed literal of another
// package's struct is left out, as go vet refuses it.
func knobFields(p *program, scannedPrefix string, reached map[types.Object]bool, linked map[*types.Package]bool) []decl {
	fields := map[types.Object]decl{}
	read, setOutside := map[types.Object]bool{}, map[types.Object]bool{}
	for _, pk := range p.pkgs {
		scanned := strings.HasPrefix(pk.path+"/", scannedPrefix)
		rel := strings.TrimPrefix(pk.path, scannedPrefix)
		for _, f := range pk.files {
			for _, d := range f.Decls {
				live := false
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						live = linked[pk.types]
					} else {
						live = reached[pk.info.Defs[d.Name]]
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							st, ok := s.Type.(*ast.StructType)
							if !scanned || !ok || !isKnobStruct(rel, s.Name.Name) {
								continue
							}
							for _, fl := range st.Fields.List {
								for _, id := range fl.Names {
									if id.IsExported() {
										fields[pk.info.Defs[id]] = decl{name: rel + "." + s.Name.Name + "." + id.Name,
											pos: p.fset.Position(id.Pos()), lines: 1, knob: true}
									}
								}
							}
						case *ast.ValueSpec:
							// A package-level initializer runs when the
							// package is linked in.
							live = live || len(s.Values) > 0 && linked[pk.types]
							for _, id := range s.Names {
								live = live || reached[pk.info.Defs[id]]
							}
						}
					}
				}
				if !live {
					continue
				}
				written := map[*ast.Ident]bool{}
				writes := func(x ast.Expr) {
					for {
						switch e := ast.Unparen(x).(type) {
						case *ast.SelectorExpr:
							written[e.Sel] = true
							x = e.X
						case *ast.IndexExpr:
							x = e.X
						case *ast.StarExpr:
							x = e.X
						default:
							return
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							writes(lhs)
						}
					case *ast.IncDecStmt:
						writes(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							writes(n.X)
						}
					case *ast.KeyValueExpr:
						if id, ok := n.Key.(*ast.Ident); ok {
							written[id] = true
						}
					case *ast.Ident:
						v, ok := pk.info.Uses[n].(*types.Var)
						if !ok || !v.IsField() {
							break
						}
						v = v.Origin()
						if !written[n] {
							read[v] = true
						} else if v.Pkg() != pk.types {
							setOutside[v] = true
						}
					}
					return true
				})
			}
		}
	}
	var out []decl
	for obj, d := range fields {
		if read[obj] && !setOutside[obj] {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// isKnobStruct reports whether the struct type name, declared in the
// scanned package rel, is a configuration whose fields are settings.
func isKnobStruct(rel, name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") ||
		strings.HasSuffix(name, "Policy") || rel == "transparency" && name == "Env"
}

// unreadFields returns the unexported named fields of the struct types the
// scanned packages declare that no code reads: a field only ever assigned,
// incremented or set in a composite literal is state nothing consults. A
// field read through a longer path (x.f.g = v, x.f[i] = v, &x.f) counts as
// read, and so does every field of a struct used as a map key.
func unreadFields(p *program, scannedPrefix string) []decl {
	fields := map[types.Object]decl{}
	read := map[types.Object]bool{}
	for _, pk := range p.pkgs {
		scanned := strings.HasPrefix(pk.path+"/", scannedPrefix)
		rel := strings.TrimPrefix(pk.path, scannedPrefix)
		for _, f := range pk.files {
			written := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					if !ok || !scanned {
						break
					}
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							if id.Name != "_" && !id.IsExported() {
								fields[pk.info.Defs[id]] = decl{name: rel + "." + n.Name.Name + "." + id.Name,
									pos: p.fset.Position(id.Pos()), lines: 1, field: true}
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
							written[sel.Sel] = true
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := ast.Unparen(n.X).(*ast.SelectorExpr); ok {
						written[sel.Sel] = true
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						written[id] = true
					}
				case *ast.MapType:
					// A map key's every field is read by hashing and ==.
					id, _ := n.Key.(*ast.Ident)
					if sel, ok := n.Key.(*ast.SelectorExpr); ok {
						id = sel.Sel
					}
					if tn, ok := pk.info.Uses[id].(*types.TypeName); ok {
						if st, ok := tn.Type().Underlying().(*types.Struct); ok {
							for i := 0; i < st.NumFields(); i++ {
								read[canon(st.Field(i))] = true
							}
						}
					}
				}
				return true
			})
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !written[id] {
					if obj := pk.info.Uses[id]; obj != nil {
						read[canon(obj)] = true
					}
				}
				return true
			})
		}
	}
	var out []decl
	for obj, d := range fields {
		if !read[obj] {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// implementing returns the method named name that makes tn (or *tn) satisfy
// it, or nil. A generic type is matched by method name alone.
func implementing(tn *types.TypeName, it *types.Interface, pkg *types.Package, name string, generic bool) types.Object {
	if !generic && !types.Implements(tn.Type(), it) && !types.Implements(types.NewPointer(tn.Type()), it) {
		return nil
	}
	return methodOf(tn, pkg, name)
}

// methodOf looks name up in the method set of *tn, promoted methods
// included, and returns the declared method or nil.
func methodOf(tn *types.TypeName, pkg *types.Package, name string) types.Object {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, pkg, name)
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return nil
}

func isInterfaceMethod(f *types.Func) bool {
	recv := f.Type().(*types.Signature).Recv()
	return recv != nil && types.IsInterface(recv.Type())
}

// declName is a declaration's name within its package: Name, or
// Type.Method for a method.
func declName(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if nt, ok := t.(*types.Named); ok {
				return nt.Obj().Name() + "." + f.Name()
			}
		}
	}
	return obj.Name()
}

func docOr(doc *ast.CommentGroup, n ast.Node) ast.Node {
	if doc != nil {
		return doc
	}
	return n
}

// countOwnOnly counts the exported package-level names of the scanned
// packages that no other package uses. Methods are left out: an interface
// call site names the interface's method, not the one that runs.
func countOwnOnly(p *program, nodes map[types.Object]*node) int {
	outside := map[types.Object]bool{}
	for _, pk := range p.pkgs {
		for _, obj := range pk.info.Uses {
			if tracked(obj) && obj.Pkg() != pk.types {
				outside[canon(obj)] = true
			}
		}
	}
	n := 0
	for obj, nd := range nodes {
		if nd.decl != nil && obj.Exported() && obj.Parent() == obj.Pkg().Scope() && !outside[obj] {
			n++
		}
	}
	return n
}

// allowEntry is one pattern of an allow list: a path.Match pattern over
// declaration names and the reason the declarations it matches stay.
type allowEntry struct {
	pattern, reason string
	line            int
}

func readAllow(file string) ([]allowEntry, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var out []allowEntry
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] == '#' {
			continue
		}
		// A pattern is one field, or "! x" and "x -> y" (retired.txt's forms).
		fields, n := strings.Fields(line), 1
		for n < len(fields) && (fields[n-1] == "!" || fields[n-1] == "->" || fields[n] == "->") {
			n++
		}
		if len(fields) <= n {
			return nil, fmt.Errorf("%s:%d: want \"pattern  reason\"", file, i+1)
		}
		for _, pattern := range expand(strings.Join(fields[:n], " ")) {
			if _, err := path.Match(pattern, ""); err != nil {
				return nil, fmt.Errorf("%s:%d: %v", file, i+1, err)
			}
			out = append(out, allowEntry{pattern: pattern, reason: strings.Join(fields[n:], " "), line: i + 1})
		}
	}
	return out, nil
}

// expand spells out a pattern's {a,b} groups: T.{A,B} is T.A and T.B,
// each of which must match something, so a line can name exactly the
// methods its reason owns.
func expand(pattern string) []string {
	open, end := strings.IndexByte(pattern, '{'), strings.IndexByte(pattern, '}')
	if open < 0 || end < open {
		return []string{pattern}
	}
	var out []string
	for _, alt := range strings.Split(pattern[open+1:end], ",") {
		out = append(out, expand(pattern[:open]+alt+pattern[end+1:])...)
	}
	return out
}

// owner is what an allow reason must start with: the open ROADMAP item
// that will run what the line matches, a seam or support code of named
// tests, or the experiments' scales. A paper section alone owns nothing: a
// reproduction is what runs.
var owner = regexp.MustCompile(`^(ROADMAP items? [0-9]+|test seam|test support|the experiments' own scales)\b`)

// check splits a scan against an allow list: the unreached declarations,
// unread fields and knobs no owned pattern matches, the owned patterns that
// match none of them, and the patterns whose reason names no owner (which
// own nothing).
func check(res *result, allow []allowEntry) (unowned []decl, stale, ownerless []allowEntry) {
	owned := allow[:0:0]
	for _, a := range allow {
		if owner.MatchString(a.reason) {
			owned = append(owned, a)
		} else {
			ownerless = append(ownerless, a)
		}
	}
	used := make([]bool, len(owned))
	all := append(append(res.unreached[:len(res.unreached):len(res.unreached)], res.unread...), res.knobs...)
	for _, d := range all {
		matched := false
		for i, a := range owned {
			if ok, _ := path.Match(a.pattern, d.name); ok {
				used[i], matched = true, true
			}
		}
		if !matched {
			unowned = append(unowned, d)
		}
	}
	for i, a := range owned {
		if !used[i] {
			stale = append(stale, a)
		}
	}
	return unowned, stale, ownerless
}
