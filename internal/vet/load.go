package vet

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ModPath is the module path from go.mod; fsvet resolves module
// import paths underneath it from source.
const ModPath = "fastsocket"

// Program is a fully type-checked view of the module: every package
// under the root (plus any corpus overlays), with shared type
// information. All fsvet passes run against a Program.
type Program struct {
	Fset  *token.FileSet
	Root  string
	Info  *types.Info
	Pkgs  map[string]*types.Package // import path -> package
	Files map[string][]*ast.File    // import path -> parsed files
	// Paths lists the loaded module import paths in sorted order; all
	// pass output iterates in this order for determinism.
	Paths []string

	// overlay maps an import path to an on-disk directory outside the
	// normal module layout (golden-corpus packages in testdata).
	overlay map[string]string
}

// Load parses and type-checks every non-test package under root
// (skipping hidden directories and testdata) against the standard
// library via the source importer. go.mod stays dependency-free, so
// nothing else can appear in the import graph.
func Load(root string) (*Program, error) {
	return load(root, nil)
}

// LoadWithOverlay is Load plus corpus packages: overlay maps synthetic
// module import paths (e.g. "fastsocket/internal/kernel/corpusfoo") to
// directories holding their sources. Overlay packages may import real
// module packages; the synthetic path decides restricted-package
// status exactly as it would for real code.
func LoadWithOverlay(root string, overlay map[string]string) (*Program, error) {
	return load(root, overlay)
}

func load(root string, overlay map[string]string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	p := &Program{
		Fset: token.NewFileSet(),
		Root: root,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
			Scopes:     map[ast.Node]*types.Scope{},
		},
		Pkgs:    map[string]*types.Package{},
		Files:   map[string][]*ast.File{},
		overlay: overlay,
	}
	ld := &loader{prog: p, std: importer.ForCompiler(p.Fset, "source", nil)}

	var paths []string
	seen := map[string]bool{}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, walkErr error) error {
		if walkErr != nil {
			return walkErr
		}
		if d.IsDir() {
			name := d.Name()
			if (strings.HasPrefix(name, ".") && path != root) || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if seen[dir] {
			return nil
		}
		seen[dir] = true
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		ip := ModPath
		if rel != "." {
			ip = ModPath + "/" + filepath.ToSlash(rel)
		}
		paths = append(paths, ip)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ip := range overlay {
		paths = append(paths, ip)
	}
	sort.Strings(paths)

	for _, ip := range paths {
		if _, err := ld.Import(ip); err != nil {
			return nil, fmt.Errorf("vet: load %s: %w", ip, err)
		}
	}
	p.Paths = make([]string, 0, len(p.Pkgs))
	for ip := range p.Pkgs {
		p.Paths = append(p.Paths, ip)
	}
	sort.Strings(p.Paths)
	return p, nil
}

// loader resolves imports: module paths from source under the root (or
// an overlay directory), everything else through the stdlib source
// importer.
type loader struct {
	prog *Program
	std  types.Importer
}

func (l *loader) Import(path string) (*types.Package, error) {
	p := l.prog
	if pkg, ok := p.Pkgs[path]; ok {
		return pkg, nil
	}
	if path != ModPath && !strings.HasPrefix(path, ModPath+"/") {
		return l.std.Import(path)
	}
	dir, ok := p.overlay[path]
	if !ok {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, ModPath), "/")
		dir = filepath.Join(p.Root, filepath.FromSlash(rel))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(p.Fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	cfg := types.Config{Importer: l}
	pkg, err := cfg.Check(path, p.Fset, files, p.Info)
	if err != nil {
		return nil, err
	}
	p.Pkgs[path] = pkg
	p.Files[path] = files
	return pkg, nil
}

// RelPos renders a position with the filename relative to the module
// root, so findings are machine-independent.
func (p *Program) RelPos(pos token.Pos) token.Position {
	tp := p.Fset.Position(pos)
	if rel, err := filepath.Rel(p.Root, tp.Filename); err == nil && !strings.HasPrefix(rel, "..") {
		tp.Filename = filepath.ToSlash(rel)
	}
	return tp
}

// PkgDir returns the import path's package directory path relative to
// the module ("internal/kernel"), used for restricted-package checks.
func PkgDir(importPath string) string {
	return strings.TrimPrefix(strings.TrimPrefix(importPath, ModPath), "/")
}

// Restricted reports whether the package at this import path must obey
// the determinism, unit and charge rules: internal/<name> packages
// feeding simulated results, minus the recorded exemptions.
func Restricted(importPath string) bool {
	rest, ok := strings.CutPrefix(PkgDir(importPath), "internal/")
	if !ok {
		return false
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	if _, exempt := exemptPkgs[rest]; exempt {
		return false
	}
	return restrictedPkgs[rest]
}

// restrictedPkgs are the internal/<name> packages whose code feeds
// simulated results and therefore must stay deterministic.
var restrictedPkgs = map[string]bool{
	"sim": true, "lock": true, "cpu": true, "nic": true,
	"kernel": true, "tcb": true, "tcp": true, "vfs": true,
	"epoll": true, "ktimer": true, "core": true, "netproto": true,
	"workload": true, "experiment": true,
	// fault makes the per-run fault decisions; it must stay on the
	// seeded splitmix hash (no math/rand, no waivers) or replays and
	// parallel sweeps diverge.
	"fault": true,
}

// exemptPkgs are internal/<name> packages explicitly excluded from the
// restricted set, with the reason on record. An entry here wins over
// restrictedPkgs, so the exemption survives even if the restricted set
// later becomes broader. Exempt packages are also barriers for the
// reachability pass: restricted code calling into them is covered by
// the recorded reason.
var exemptPkgs = map[string]string{
	// sweep runs independent simulation jobs on parallel host
	// goroutines. Each job builds its own sim.Loop, seeds its own PRNGs
	// and writes to its own result slot, so host scheduling can reorder
	// only job completion, never a simulated outcome; go test -race
	// ./internal/sweep asserts parallel results equal serial ones.
	"sweep": "host-parallel sweep orchestration; jobs are whole independently-seeded simulations",
	// shard steps disjoint coupling domains (whole sim.Loops) on real
	// goroutines between barriers, and drains every cross-domain
	// injection in (time, source shard, source sequence) order; make
	// shardgate proves parallel == serial bit for bit.
	"shard": "conservative-lookahead parallel engine; domains are whole sim.Loops synchronized at deterministic mailbox barriers",
}

// ForbiddenImports are the packages a restricted package must not
// import (determinism pass) or reach through any call chain (reach
// pass).
var ForbiddenImports = map[string]string{
	"time":         "wall-clock time; use sim.Time",
	"math/rand":    "host randomness; use sim.Rand",
	"math/rand/v2": "host randomness; use sim.Rand",
	"sync":         "real synchronization; the simulation is single-threaded",
	"sync/atomic":  "real synchronization; the simulation is single-threaded",
}
