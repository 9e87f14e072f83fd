package smatch

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachStdMethods are the method names of the standard-library interfaces
// the module's values are handed to without a call site naming the method:
// error and the wrapped errors errors.Is and errors.As walk, fmt.Stringer,
// io.Reader/Writer/Closer and net.Conn.
var reachStdMethods = []string{
	"Error", "Unwrap", "String", "Read", "Write", "Close",
	"LocalAddr", "RemoteAddr", "SetDeadline", "SetReadDeadline", "SetWriteDeadline",
}

// reachDecl is one top-level declaration: a package-level func, type, var
// or const, or a method. Its key is importpath.Name or
// importpath.Type.Method, the form testdata/unreached.txt uses.
type reachDecl struct {
	key  string
	pkg  string
	pos  token.Position
	uses []string // keys of the declarations its syntax names
}

// reachGraph is the declarations of every package checked from source.
type reachGraph struct {
	decls      map[string]*reachDecl
	methods    map[string][]string // receiver type key -> its method keys
	ifaceNames map[string]bool     // method names some interface declares
	roots      []string
}

// TestEveryDeclarationReached proves that every top-level declaration in
// the non-test files under internal/ and cmd/ is one a program can run, or
// one that testdata/unreached.txt names with the reason tests need it.
//
// The roots are main and init in cmd/* and examples/*, every declaration
// in bench/, the root package's exported API and every package-level var
// initializer. A reached declaration reaches everything its syntax names.
// A method is also reached when its receiver type is, if its name is a
// method of an interface the module declares or of reachStdMethods. A
// line of the allowlist that names a reached declaration, or one that no
// longer exists, fails too.
func TestEveryDeclarationReached(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH: cannot list the module's packages")
	}
	benchPkg, err := build.ImportDir("bench", 0)
	if err != nil {
		t.Fatalf("bench/: %v", err)
	}
	// bench/ is its own module, so its standard-library imports are
	// listed by path beside ./... to get their export data too.
	args := []string{"list", "-export", "-deps", "-json", "./..."}
	for _, imp := range benchPkg.Imports {
		if !strings.HasPrefix(imp, "smatch/") && imp != "unsafe" {
			args = append(args, imp)
		}
	}
	cmd := exec.Command(goBin, args...)
	cmd.Env = append(os.Environ(), "GOFLAGS=", "GOTOOLCHAIN=local", "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}

	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		Module                  *struct{ Path string }
	}
	exports := map[string]string{}
	var srcPkgs []listed
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listed
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decoding go list output: %v", err)
		}
		exports[p.ImportPath] = p.Export
		if p.Module != nil && p.Module.Path == "smatch" {
			srcPkgs = append(srcPkgs, p)
		}
	}
	srcPkgs = append(srcPkgs, listed{ImportPath: "smatch/bench", Dir: benchPkg.Dir, GoFiles: benchPkg.GoFiles})

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("go list gave no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	g := &reachGraph{decls: map[string]*reachDecl{}, methods: map[string][]string{}, ifaceNames: map[string]bool{}}
	for _, name := range reachStdMethods {
		g.ifaceNames[name] = true
	}
	for _, p := range srcPkgs {
		if err := g.add(fset, imp, p.ImportPath, p.Dir, p.GoFiles); err != nil {
			t.Fatal(err)
		}
	}

	allow, err := readUnreached(filepath.Join("testdata", "unreached.txt"))
	if err != nil {
		t.Fatal(err)
	}
	reached := g.reach(g.roots)
	var allowKeys []string
	for _, entry := range allow {
		keys := g.matching(entry)
		if len(keys) == 0 {
			t.Errorf("testdata/unreached.txt: %s no longer exists; delete its line", entry)
			continue
		}
		for _, k := range keys {
			if reached[k] {
				t.Errorf("testdata/unreached.txt: %s is reached by a program (%s); delete its line", entry, k)
			}
		}
		allowKeys = append(allowKeys, keys...)
	}
	reached = g.reach(append(allowKeys, g.roots...))

	var missing []*reachDecl
	for _, d := range g.decls {
		checked := strings.HasPrefix(d.pkg, "smatch/internal/") || strings.HasPrefix(d.pkg, "smatch/cmd/")
		if checked && !reached[d.key] {
			missing = append(missing, d)
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i].key < missing[j].key })
	for _, d := range missing {
		t.Errorf("%s:%d: %s is reached by no command, example, bench/ file or root-package export; delete it, or add it to testdata/unreached.txt with the reason a test needs it",
			d.pos.Filename, d.pos.Line, d.key)
	}
}

// add type-checks one package's files and records its declarations.
func (g *reachGraph) add(fset *token.FileSet, imp types.Importer, path, dir string, names []string) error {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(path, fset, files, info); err != nil {
		return err
	}
	isCmd := strings.HasPrefix(path, "smatch/cmd/") || strings.HasPrefix(path, "smatch/examples/")
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				if iface, ok := info.Types[it].Type.(*types.Interface); ok {
					for i := 0; i < iface.NumMethods(); i++ {
						g.ifaceNames[iface.Method(i).Name()] = true
					}
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				key := path + "." + decl.Name.Name
				if decl.Recv != nil {
					recv := path + "." + recvName(decl.Recv.List[0].Type)
					key = recv + "." + decl.Name.Name
					g.methods[recv] = append(g.methods[recv], key)
				}
				uses := usedKeys(info, decl)
				switch {
				case decl.Recv == nil && decl.Name.Name == "init":
					g.roots = append(g.roots, uses...)
					continue
				case decl.Recv == nil && decl.Name.Name == "main" && isCmd,
					path == "smatch/bench",
					path == "smatch" && decl.Name.IsExported():
					g.roots = append(g.roots, key)
				}
				g.decls[key] = &reachDecl{key: key, pkg: path, pos: fset.Position(decl.Pos()), uses: uses}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						g.declare(fset, info, path, spec.Name, spec)
					case *ast.ValueSpec:
						// A var's initializer runs whether or not
						// anything reads the var.
						if decl.Tok == token.VAR {
							for _, v := range spec.Values {
								g.roots = append(g.roots, usedKeys(info, v)...)
							}
						}
						for _, name := range spec.Names {
							if name.Name != "_" {
								g.declare(fset, info, path, name, spec)
							}
						}
					}
				}
			}
		}
	}
	return nil
}

func (g *reachGraph) declare(fset *token.FileSet, info *types.Info, path string, name *ast.Ident, node ast.Node) {
	key := path + "." + name.Name
	g.decls[key] = &reachDecl{key: key, pkg: path, pos: fset.Position(name.Pos()), uses: usedKeys(info, node)}
	if path == "smatch/bench" || path == "smatch" && name.IsExported() {
		g.roots = append(g.roots, key)
	}
}

// reach returns the keys reachable from roots.
func (g *reachGraph) reach(roots []string) map[string]bool {
	seen := map[string]bool{}
	work := append([]string(nil), roots...)
	for len(work) > 0 {
		k := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[k] {
			continue
		}
		seen[k] = true
		if d := g.decls[k]; d != nil {
			work = append(work, d.uses...)
		}
		for _, m := range g.methods[k] {
			if g.ifaceNames[m[strings.LastIndexByte(m, '.')+1:]] {
				work = append(work, m)
			}
		}
	}
	return seen
}

// matching returns the declarations an allowlist entry names: one key, or
// every declaration of a package when the entry is an import path.
func (g *reachGraph) matching(entry string) []string {
	if d := g.decls[entry]; d != nil {
		return []string{entry}
	}
	var keys []string
	for k, d := range g.decls {
		if d.pkg == entry {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// usedKeys lists the keys of the package-level objects and methods that
// node's identifiers denote.
func usedKeys(info *types.Info, node ast.Node) []string {
	var keys []string
	ast.Inspect(node, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if k := objKey(info.Uses[id]); k != "" {
			keys = append(keys, k)
		}
		return true
	})
	return keys
}

func objKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || types.IsInterface(named) {
				return "" // an interface method: reached by name instead
			}
			return fn.Pkg().Path() + "." + named.Origin().Obj().Name() + "." + fn.Name()
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvName is the type name of a method receiver expression: T, *T, T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// readUnreached parses the allowlist: one entry per line, then its reason.
// Blank lines and lines starting with # are skipped.
func readUnreached(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var entries []string
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		entry, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, entry)
		}
		entries = append(entries, entry)
	}
	return entries, sc.Err()
}
