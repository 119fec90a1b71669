//go:build !race

package metascope_test

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDesignRules holds the tree to each design rule and each fixture of a rule, a
// counterexample overlaid on the tree, to breaking it. The race detector would only slow it.
func TestDesignRules(t *testing.T) {
	p, err := load(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			for _, s := range r.check(p) {
				t.Errorf("%s:%d: %s\n\t%s", s.file, s.line, s.what, r.reason)
			}
			for i, fx := range r.fixtures {
				if q, err := p.overlay(fx); err != nil || len(r.check(q)) == 0 {
					t.Errorf("fixture %d (%s) must type-check and fail the rule: %v", i, fx.file, err)
				}
			}
		})
	}
}

type rule struct {
	name, reason string
	check        check
	fixtures     []fixture
}

// fixture overlays file: new replaces old, or is appended when old is empty.
type fixture struct{ file, old, new string }

// site is a fact a rule reports, and the key of the function it is in.
type site struct {
	file     string
	line     int
	what, fn string
}

// pkg is a directory: its files, the non-test ones type-checked, and their facts.
type pkg struct {
	dir    string
	files  map[string]*ast.File
	tested bool
	types  *types.Package
	info   *types.Info
	decls  [][]site
}

type program struct {
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*pkg // by import path
	docs    map[string]string
	flags   map[string][]string        // a metascope verb → the flags its -h lists
	owner   map[*types.Var]string      // a field → the key of its named struct
	reached map[string]map[string]bool // by reach's root
	seen    map[*ast.File][][]site     // each file's declarations' facts
}

const module = "metascope"

func short(path string) string  { return strings.TrimPrefix(path, module+"/") }
func pathOf(file string) string { return strings.TrimSuffix(module+"/"+filepath.Dir(file), "/.") }
func isTest(file string) bool   { return strings.HasSuffix(file, "_test.go") }
func is[T any](x any) bool      { _, ok := x.(T); return ok }
func typeKey(t types.Type) string {
	return types.TypeString(t, func(k *types.Package) string { return short(k.Path()) })
}

// load type-checks the module, reads the docs and asks the metascope command,
// built into tmp, for each verb's flags.
func load(tmp string) (*program, error) {
	bin := filepath.Join(tmp, "metascope")
	exports, err := exec.Command("go", "list", "-export", "-deps", "-f", "{{if .Standard}}{{.ImportPath}}={{.Export}}{{end}}", "./...").Output()
	p := &program{token.NewFileSet(), nil, map[string]*pkg{}, map[string]string{}, map[string][]string{}, map[*types.Var]string{}, nil, map[*ast.File][][]site{}}
	p.std = importer.ForCompiler(p.fset, "gc", func(path string) (io.ReadCloser, error) { // the standard library, from export data
		_, file, _ := strings.Cut("\n"+string(exports), "\n"+path+"=")
		return os.Open(strings.Split(file, "\n")[0])
	})
	if b, berr := exec.Command("go", "build", "-o", bin, "./cmd/metascope").CombinedOutput(); berr != nil {
		return nil, fmt.Errorf("go build: %v\n%s", berr, b)
	}
	usage, _ := exec.Command(bin, "-h").CombinedOutput()
	for _, verb := range regexp.MustCompile(`(?m)^  ([a-z]+) `).FindAllStringSubmatch(string(usage), -1) {
		help, _ := exec.Command(bin, verb[1], "-h").CombinedOutput()
		p.flags[verb[1]] = append(regexp.MustCompile(`(?m)^  -[a-z][a-z0-9-]*`).FindAllString(string(help), -1), "  -h")
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		b, rerr := os.ReadFile(doc)
		p.docs[doc], err = string(b), cmp.Or(err, rerr)
	}
	err = cmp.Or(err, filepath.Walk(".", func(path string, fi os.FileInfo, err error) error {
		if err == nil && fi.IsDir() && path != "." && (fi.Name()[0] == '.' || fi.Name() == "testdata") {
			return filepath.SkipDir
		} else if err == nil && strings.HasSuffix(path, ".go") {
			err = p.add(filepath.ToSlash(path), nil)
		}
		return err
	}))
	return p, cmp.Or(err, p.checkAll())
}

func (p *program) add(file string, src any) error {
	pk := cmp.Or(p.pkgs[pathOf(file)], &pkg{dir: filepath.Dir(file), files: map[string]*ast.File{}})
	p.pkgs[pathOf(file)] = pk
	f, err := parser.ParseFile(p.fset, file, src, parser.SkipObjectResolution)
	pk.files[file], pk.tested = f, pk.tested || isTest(file)
	return err
}

func (p *program) checkAll() (err error) {
	for path := range p.pkgs {
		_, perr := p.Import(path)
		err = cmp.Or(err, perr)
	}
	p.reached = map[string]map[string]bool{}
	return err
}

// Import type-checks a module package once, after those it imports, and lists
// its facts; a standard package comes from its export data.
func (p *program) Import(path string) (*types.Package, error) {
	pk, err := p.pkgs[path], error(nil)
	if pk == nil {
		return p.std.Import(path)
	}
	var files []*ast.File
	for name, f := range pk.files {
		if !isTest(name) {
			files = append(files, f)
		}
	}
	if pk.types != nil || len(files) == 0 {
		return pk.types, nil
	}
	pk.info = &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pk.types, err = (&types.Config{Importer: p, Error: func(error) {}}).Check(path, p.fset, files, pk.info)
	for _, name := range pk.types.Scope().Names() {
		if st, ok := pk.types.Scope().Lookup(name).Type().Underlying().(*types.Struct); ok {
			for i := range st.NumFields() {
				p.owner[st.Field(i)] = short(path) + "." + name
			}
		}
	}
	for file, f := range pk.files {
		for _, d := range f.Decls[len(p.seen[f]):] { // a file an overlay leaves alone keeps its facts
			var facts []site
			fn := ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn = p.key(pk.info.Defs[fd.Name])
			}
			ast.Inspect(d, func(n ast.Node) bool {
				for _, what := range p.facts(pk, n) {
					facts = append(facts, site{file, p.fset.Position(n.Pos()).Line, what, fn})
				}
				return true
			})
			p.seen[f] = append(p.seen[f], facts)
		}
		pk.decls = append(pk.decls, p.seen[f]...)
	}
	pk.decls = append(pk.decls, []site{{file: pk.dir, what: fmt.Sprintf("package %s tested %t", pk.types.Name(), pk.tested)}})
	return pk.types, err
}

// overlay returns p with fx applied, sharing all but the doc or package fx touches.
func (p *program) overlay(fx fixture) (*program, error) {
	b, _ := os.ReadFile(fx.file)
	src, text := string(b), string(b)+fx.new
	if fx.old != "" && strings.Count(src, fx.old) != 1 {
		return nil, fmt.Errorf("%s does not hold %q once", fx.file, fx.old)
	} else if fx.old != "" {
		text = strings.Replace(src, fx.old, fx.new, 1)
	}
	q := *p
	q.pkgs, q.docs = maps.Clone(p.pkgs), maps.Clone(p.docs)
	if _, isDoc := p.docs[fx.file]; isDoc {
		q.docs[fx.file] = text
		return &q, nil
	}
	if pk := p.pkgs[pathOf(fx.file)]; pk != nil {
		q.pkgs[pathOf(fx.file)] = &pkg{dir: pk.dir, files: maps.Clone(pk.files), tested: pk.tested}
	}
	return &q, cmp.Or(q.add(fx.file, text), q.checkAll())
}

// key names obj, the module prefix dropped: "pkg.Name" at package level ("sync.Cond"),
// "pkg.Type.Name" for a method or a field of a named struct ("internal/replay.stepper.publish"),
// the name of a predeclared one ("make"), "" for a local.
func (p *program) key(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok && f.Origin().Type().(*types.Signature).Recv() != nil {
		recv := typeKey(f.Origin().Type().(*types.Signature).Recv().Type())
		return strings.TrimPrefix(strings.Split(recv, "[")[0], "*") + "." + f.Name()
	} else if v, ok := obj.(*types.Var); ok && v.IsField() {
		return p.owner[v.Origin()] + "." + v.Name()
	} else if obj == nil || obj.Pkg() != nil && obj.Parent() != obj.Pkg().Scope() {
		return ""
	} else if obj.Pkg() == nil {
		return obj.Name()
	}
	return short(obj.Pkg().Path()) + "." + obj.Name()
}

// facts says what a node does, K being an object's key or a local's name: "use
// K" for a name of K; "def C K U" for a name declared, of class C (Var, Func,
// TypeName…) and underlying type U; "set K…", "call K…", "loop K…" and "go
// K…" for the left side of an assignment, a call, a loop and a go statement's
// function, each K an object they name; "alloc T" for a make, new or
// composite literal of type T; "map V" for a map-typed expression with values
// V; "import P"; "sel X.N" for a selector of a test file (not type-checked);
// "package N tested B" for a package named N that has tests or not.
func (p *program) facts(pk *pkg, n ast.Node) (fs []string) {
	switch x := n.(type) {
	case *ast.Ident:
		if k := p.key(pk.info.Uses[x]); k != "" {
			fs = append(fs, "use "+k)
		}
		if obj := pk.info.Defs[x]; obj != nil {
			fs = append(fs, "def "+strings.TrimPrefix(fmt.Sprintf("%T ", obj), "*types.")+cmp.Or(p.key(obj), x.Name)+" "+typeKey(obj.Type().Underlying()))
		}
	case *ast.SelectorExpr:
		if pk.info.Uses[x.Sel] == nil {
			fs = append(fs, "sel "+types.ExprString(x))
		}
	case *ast.AssignStmt:
		for _, l := range x.Lhs {
			fs = append(fs, "set"+p.uses(pk, l))
		}
	case *ast.IncDecStmt:
		fs = append(fs, "set"+p.uses(pk, x.X))
	case *ast.ValueSpec:
		for _, id := range x.Names {
			fs = append(fs, "set"+p.uses(pk, id))
		}
	case *ast.CallExpr:
		if f := p.uses(pk, x.Fun); f == " make" || f == " new" {
			fs = append(fs, "alloc "+typeKey(pk.info.TypeOf(x)))
		}
		fs = append(fs, "call"+p.uses(pk, x))
	case *ast.CompositeLit:
		fs = append(fs, "alloc "+typeKey(pk.info.TypeOf(x)))
	case *ast.ForStmt, *ast.RangeStmt:
		fs = append(fs, "loop"+p.uses(pk, x))
	case *ast.GoStmt:
		fs = append(fs, "go"+p.uses(pk, x.Call.Fun))
	case *ast.ImportSpec:
		fs = append(fs, "import "+strings.Trim(x.Path.Value, `"`))
	}
	if e, ok := n.(ast.Expr); ok && pk.info.TypeOf(e) != nil && is[*types.Map](pk.info.TypeOf(e).Underlying()) {
		fs = append(fs, "map "+typeKey(pk.info.TypeOf(e).Underlying().(*types.Map).Elem()))
	}
	return fs
}

// uses is " K" for each object n names, or its name for a local.
func (p *program) uses(pk *pkg, n ast.Node) string {
	var keys []string
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			keys = append(keys, cmp.Or(p.key(pk.info.ObjectOf(id)), id.Name))
		}
		return true
	})
	return " " + strings.Join(keys, " ")
}

// scope picks declarations by directory, file and function ("" for others).
type scope func(p *program, dir, file, fn string) bool

// picks: s names a declaration's package ("internal/replay"), a directory above it
// ("internal/"; "" is every one), its file, its function or its type's ("internal/replay.T.").
func picks(s, dir, file, fn string) bool {
	return s == "" || s == dir || s == file || s == fn || strings.HasSuffix(s, "/") && strings.HasPrefix(dir+"/", s) || strings.HasSuffix(s, ".") && strings.HasPrefix(fn, s)
}

func in(paths ...string) scope {
	return func(_ *program, dir, file, fn string) bool {
		return !isTest(file) && slices.ContainsFunc(paths, func(s string) bool { return picks(s, dir, file, fn) })
	}
}

// reach picks the functions root reaches within its package, each reaching
// those its body names (not through an interface or a func value).
func reach(root string) scope {
	pkg := root[:strings.Index(root, ".")]
	return func(p *program, _, _, fn string) bool {
		if p.reached[root] == nil {
			calls, seen := map[string][]string{}, map[string]bool{}
			for _, s := range forbid(in(pkg), `^use `)(p) {
				calls[s.fn] = append(calls[s.fn], s.what[4:])
			}
			for stack := []string{root}; len(stack) > 0; {
				f := stack[len(stack)-1]
				if stack = stack[:len(stack)-1]; !seen[f] && strings.HasPrefix(f, pkg+".") {
					seen[f], stack = true, append(stack, calls[f]...)
				}
			}
			p.reached[root] = seen
		}
		return p.reached[root][fn]
	}
}

type check func(p *program) []site

// forbid reports the facts expr matches in what s picks and allowed does not.
func forbid(s scope, expr string, allowed ...string) check {
	r := regexp.MustCompile(expr)
	return func(p *program) (out []site) {
		for _, pk := range p.pkgs {
			for _, d := range pk.decls {
				if len(d) > 0 && s(p, pk.dir, d[0].file, d[0].fn) && !slices.ContainsFunc(allowed, func(a string) bool { return picks(a, pk.dir, d[0].file, d[0].fn) }) {
					out = append(out, slices.DeleteFunc(slices.Clone(d), func(f site) bool { return !r.MatchString(f.what) })...)
				}
			}
		}
		return out
	}
}

func each(checks ...check) check {
	return func(p *program) (out []site) {
		for _, c := range checks {
			out = append(out, c(p)...)
		}
		return out
	}
}

func within(lo, hi int, what string, c check) check {
	return func(p *program) []site {
		if sites := c(p); len(sites) < lo || len(sites) > hi {
			return append(sites, site{what: fmt.Sprintf("%d %s, want %d to %d", len(sites), what, lo, hi)})
		}
		return nil
	}
}

const rp = "internal/replay."

// rules: a reason says what a rule keeps and what breaking it brings back.
var rules = []rule{{
	name: "replay entry-point allowlist", reason: "internal/replay keeps nine exported ways in, the names bench/ and the CLIs call, shims over one loader and one analysis; a tenth is a mode creeping back.",
	check: forbid(in("internal/replay"), `^def \w+ (\S+\.)?(LoadArchive|Analyze)`, rp+"Analyze", rp+"AnalyzeArchive", rp+"AnalyzeArchiveContext", rp+"AnalyzeContext", rp+"AnalyzeLazy", rp+"LoadArchive", rp+"LoadArchiveLazy", rp+"LoadArchiveLazyCtx", rp+"LoadArchiveObs"),
	fixtures: []fixture{
		{"internal/replay/fixture.go", "", "package replay\n\nfunc AnalyzeStreaming(ar *LazyArchive) {}\n"},
	},
}, {
	name: "one block step", reason: "A rank log is fed by one block step, rankLog.pull, whether its image is complete or still uploading, and a live stream (chunk.go) is v2 blocks only; block storage comes from newBlock alone, behind rankLog.room's free list (BuildFlightTraces builds the analyzer's own trace).",
	check: each(forbid(in("internal/replay"), `^use internal/trace\.BlockReader\.(NextInto|Next)$`, rp+"rankLog.pull"),
		forbid(in("internal/trace/chunk.go"), `^use internal/trace\.decodeEvent$`),
		forbid(in("internal/replay"), `^alloc \[\]internal/trace\.Event$`, rp+"newBlock", rp+"BuildFlightTraces")),
	fixtures: []fixture{
		{"internal/replay/fixture.go", "", "package replay\n\nfunc (lg *rankLog) pullAgain() { _, _ = lg.src.NextInto(lg.room) }\n"},
		{"internal/trace/chunk.go", "", "\nfunc decodeRow(d *decoder, ev *Event) error { return decodeEvent(d, 0, ev) }\n"},
		{"internal/replay/fixture.go", "", "package replay\n\nimport \"metascope/internal/trace\"\n\nfunc grow(n int) []trace.Event { return make([]trace.Event, 0, n) }\n"},
	},
}, {
	name: "one scheduler", reason: "A rank's replay is a stepper under one scheduler: a step that would block returns why and is re-queued by whoever unblocks it. A condition variable, an abort channel, pprof.Do or a second place that starts runners is a goroutine-per-rank mode creeping back; a live session's drain loop and the loader's decode fan-out are no rank's.",
	check: each(forbid(in("internal/replay"), `^go `, rp+"analyzer.start", rp+"Live.startLocked", rp+"load"),
		within(1, 1, "runner starts", forbid(in("internal/replay"), `^go .*\binternal/replay\.analyzer\.runner\b`)),
		forbid(in("internal/replay"), `^(use (sync\.Cond|runtime/pprof\.Do)|def \w+ (\S+\.)?abortCh )`)),
	fixtures: []fixture{
		{"internal/replay/fixture.go", "", "package replay\n\nimport \"sync\"\n\ntype condPark struct{ c *sync.Cond }\n"},
		{"internal/replay/fixture.go", "", "package replay\n\nfunc (a *analyzer) startMore() { go a.runner(0) }\n"},
		{"internal/replay/fixture.go", "", "package replay\n\nfunc (a *analyzer) perRank() {\n\tfor k := range a.logs {\n\t\tgo a.step(k)\n\t}\n}\n\nfunc (a *analyzer) step(k int) {}\n"},
	},
}, {
	name: "one abort", reason: "An analysis is aborted in one place, analyzer.cause, an atomic pointer to the first cause. A rank log (cursor.go, the rankLog and sweepCursor methods) knows neither the scheduler nor aborts, and a context reaches the analyzer through context.AfterFunc, not a watcher of its own.",
	check: each(forbid(in("internal/replay/cursor.go", rp+"rankLog.", rp+"sweepCursor."), `(?i)^(def \w+|use) .*(sched|abort)|^use internal/replay\.(analyzer|scheduler|shard)\b`),
		within(1, 1, "abort states", forbid(in("internal/replay"), `^def Var [\w/.]+\.(aborted|abortOnce|cause) `)),
		forbid(in("internal/replay"), `^(use context\.Context\.Done$|def \w+ (\S+\.)?watchDone )`)),
	fixtures: []fixture{
		{"internal/replay/cursor.go", "type rankLog struct {\n", "type rankLog struct {\n\taborted bool\n"},
		{"internal/replay/fixture.go", "", "package replay\n\ntype runState struct{ abortOnce bool }\n"},
		{"internal/replay/fixture.go", "", "package replay\n\nimport \"context\"\n\nfunc (a *analyzer) watch(ctx context.Context) {\n\t<-ctx.Done()\n\ta.abort(ctx.Err())\n}\n"},
	},
}, {
	name: "no hash per event", reason: "A replayed or validated event costs no hash: mailboxes, call paths, communicators, regions and grid pairs are sorted or dense tables. A map in worker.go, cursor.go or what a step reaches, or in the validation a pulled block goes through, is a per-event hash creeping back; the live window sink's rows (streamSink.addLocked) are looked up per window a publication deposits into.",
	check: each(forbid(in("internal/replay/worker.go", "internal/replay/cursor.go", "internal/trace/validator.go"), `^map `),
		forbid(reach(rp+"stepper.step"), `^map `, rp+"streamSink.addLocked"), forbid(reach("internal/trace.BlockReader.NextInto"), `^map `),
		forbid(in("internal/replay"), `^def \w+ (\S+\.)?(pairKey|byKey) `)),
	fixtures: []fixture{
		{"internal/replay/worker.go", "type stepper struct {\n", "type stepper struct {\n\tseen map[sig]int\n"},
		{"internal/replay/worker.go", "", "\ntype pairKey struct{ a, b int32 }\n"},
		{"internal/replay/sink.go", "func (s *streamSink) windowOf(t float64) int64 {\n", "func (s *streamSink) windowOf(t float64) int64 {\n\tif m := map[float64]int64{}; len(m) > 0 {\n\t\treturn m[t]\n\t}\n"},
		{"internal/trace/validator.go", "", "\nfunc regionNames(t *Trace) map[RegionID]string { return nil }\n"},
	},
}, {
	name: "linear collectives", reason: "A collective costs each participant O(1): the member that completes a gather summarizes it once, and a participant scores from the summary and finds its communicator rank through analyzer.commRank. A loop over the enters in what scoreCollective reaches, or a slices.Index, is a scan per member creeping back; a collGather made anywhere is an allocation per instance.",
	check: each(forbid(reach(rp+"stepper.scoreCollective"), `^loop .*\binternal/replay\.collGather\.enters\b`),
		forbid(in("internal/replay"), `^(use slices\.Index(Func)?|alloc \*?internal/replay\.collGather)$`)),
	fixtures: []fixture{
		{"internal/replay/worker.go", "\tmyEnter := g.enters[commRank]\n", "\tmyEnter := g.enters[commRank]\n\tfor _, e := range g.enters {\n\t\tmyEnter = min(myEnter, e)\n\t}\n"},
		{"internal/replay/worker.go", "\tmyEnter := g.enters[commRank]\n", "\tmyEnter := g.enters[commRank]\n\tfor i := range c.ranks {\n\t\tmyEnter = max(myEnter, g.enters[i])\n\t}\n"},
		{"internal/replay/worker.go", "", "\nfunc (a *analyzer) commRankScan(c *communicator, rank int) int { return slices.Index(c.ranks, int32(rank)) }\n"},
		{"internal/replay/worker.go", "", "\nfunc newGather(size int) *collGather { return &collGather{enters: make([]float64, size)} }\n"},
		{"internal/replay/worker.go", "", "\nfunc newGather() *collGather { return new(collGather) }\n"},
	},
}, {
	name: "no map in the phase search", reason: "The phase search is linear in what it reads: an op finds its atom by a forward cursor, a kind set is a short slice. A map in phase.go or what phase.Detect reaches is a hash per op creeping back.",
	check: each(forbid(in("internal/phase/phase.go"), `^map `), forbid(reach("internal/phase.Detect"), `^map `)),
	fixtures: []fixture{
		{"internal/phase/phase.go", "", "\nfunc opKinds(kinds []int) map[int]bool { return nil }\n"},
	},
}, {
	name: "one publication point", reason: "A live rank publishes in one place, stepper.publish, when a step returns and at the 1024-event poll: it folds what the sweep scored into the window sink, then stores the frontier and swept count (stepper.finish stores +Inf). A store or sink deposit anywhere else is a publication per event creeping back.",
	check: each(forbid(in("internal/replay"), `^use internal/replay\.streamSink\.(fold|add|deposit)`, rp+"stepper.publish", rp+"stepper.finish", rp+"streamSink."),
		forbid(in("internal/replay"), `^call .*\binternal/replay\.analyzer\.(progress|sweptEvents)\b.* sync/atomic\.\w+\.(Store|Swap|CompareAndSwap|Add|And|Or)\b`, rp+"stepper.publish", rp+"stepper.finish")),
	fixtures: []fixture{
		{"internal/replay/fixture.go", "", "package replay\n\nfunc (st *stepper) frontierNow() { st.a.progress[st.rank].Store(0) }\n"},
		{"internal/replay/fixture.go", "", "package replay\n\nfunc (st *stepper) countNow() { st.a.sweptEvents[st.rank].Add(1) }\n"},
		{"internal/replay/fixture.go", "", "package replay\n\nfunc (st *stepper) depositNow() { st.a.sink.fold(&st.rr, &st.folded, &st.foldedRecv) }\n"},
		{"internal/replay/fixture.go", "", "package replay\n\nfunc (s *streamSink) publishFrontier(a *analyzer, rank int) { a.progress[rank].Store(0) }\n"},
	},
}, {
	name: "one session record", reason: "A live session's facts are kept once: replay.Live keeps the stream it emits (Live.Events), reads a rank's ingest off its log and counts its bytes; serve keeps the SSE framing and the chunk protocol. A callback or channel in LiveConfig, a serve type holding stream events, an event or ingest field in liveRank, or a byte or event field in sessRank is a second copy creeping back.",
	check: forbid(in("internal/replay", "internal/serve"), `^def (Var internal/replay\.(Live)?Config\.\w+ (func|chan)\b|Var (?i:internal/replay\.liveRank\.\w*(event|ingest)|internal/serve\.sessRank\.\w*(byte|event))|(Var|TypeName) internal/serve\.\S+ .*internal/replay\.StreamEvent\b)`),
	fixtures: []fixture{
		{"internal/replay/live.go", "type LiveConfig struct {\n\tConfig\n", "type LiveConfig struct {\n\tConfig\n\tOnEvent func(StreamEvent)\n"},
		{"internal/serve/eventlog.go", "", "package serve\n\nimport \"metascope/internal/replay\"\n\ntype eventLog struct{ events []replay.StreamEvent }\n"},
		{"internal/serve/session.go", "", "\ntype history []replay.StreamEvent\n"},
		{"internal/replay/live.go", "\tbytes atomic.Int64\n}", "\tbytes atomic.Int64\n\tevents atomic.Int64\n}"},
		{"internal/replay/live.go", "\tbytes atomic.Int64\n}", "\tbytes atomic.Int64\n\tlastIngest atomic.Uint64\n}"},
		{"internal/serve/session.go", "\tmhChecked bool\n}", "\tmhChecked bool\n\tbytes     int64\n}"},
	},
}, {
	name: "ledger never regrows", reason: "A ledger record is written once, into the page it stays in: the per-rank logs are pagedLogs filled through add. A log replaced or appended to moves, copied at every growth step; a pagedLog's page list is written and appended to by its own methods only, and pages come from one place, pagedLog.open.",
	check: each(forbid(in("internal/replay"), `^(set|call append) .*\binternal/replay\.(pagedLog\.pages|rankResult\.(prof|recv|op)Log)\b`, rp+"pagedLog."),
		within(1, 1, "page allocations", forbid(in("internal/replay"), `^alloc \[\]T$`)), forbid(in("internal/replay"), `^alloc \[\]T$`, rp+"pagedLog.open")),
	fixtures: []fixture{
		{"internal/replay/fixture.go", "", "package replay\n\nfunc (rr *rankResult) regrow(n int) { rr.recvLog.pages = append(rr.recvLog.pages, make([]recvInfo, 0, n)) }\n"},
		{"internal/replay/fixture.go", "", "package replay\n\nfunc (rr *rankResult) reset() { rr.profLog = pagedLog[profSample]{} }\n"},
		{"internal/replay/fixture.go", "", "package replay\n\nfunc (l *pagedLog[T]) grow(n int) { l.pages = append(l.pages, make([]T, 0, n)) }\n"},
		{"internal/replay/fixture.go", "", "package replay\n\nfunc (rr *rankResult) dropPage() { rr.opLog.pages[0] = nil }\n"},
		{"internal/replay/fixture.go", "", "package replay\n\nfunc (rr *rankResult) fill(v profSample) { rr.profLog.pages[0] = append(rr.profLog.pages[0], v) }\n"},
		{"internal/replay/fixture.go", "", "package replay\n\nfunc (rr *rankResult) withPage(pg []recvInfo) int { p := append(rr.recvLog.pages, pg); return len(p) }\n"},
	},
}, {
	name: "one ledger fold", reason: "The severity ledger is read once, by analyzer.result, on one goroutine, into one profile and one phase accumulator. A second accumulator, a Merge, or a goroutine in build.go or what result reaches is a second reader of the ledger creeping back.",
	check: each(within(0, 1, "profile accumulators", forbid(in("internal/replay"), `^use internal/profile\.NewAccumulator$`)),
		within(0, 1, "phase accumulators", forbid(in("internal/replay"), `^use internal/phase\.NewAccumulator$`)),
		forbid(in("internal/replay"), `^use .*\.Merge$`), forbid(in("internal/profile"), `^(def \w+ (\S+\.)?Merge |use .*\.Merge$)`),
		forbid(in("internal/replay/build.go"), `^go `), forbid(reach(rp+"analyzer.result"), `^go `)),
	fixtures: []fixture{
		{"internal/replay/fixture.go", "", "package replay\n\nimport \"metascope/internal/profile\"\n\nfunc rankAccumulator() *profile.Accumulator { return profile.NewAccumulator(profile.Config{}) }\n"},
		{"internal/profile/profile.go", "", "\nfunc (a *Accumulator) Merge(b *Accumulator) {}\n"},
		{"internal/replay/build.go", "", "\nfunc (a *analyzer) foldAsync() { go a.logLedger() }\n"},
	},
}, {
	name: "one profile axis", reason: "A time-resolved profile has one axis per analysis, fixed when the accumulator is built; a sample outside it is clamped onto an edge bucket. A fold or widen function, or a width set anywhere but where Config.normalized fills the default, is the doubling accumulator creeping back.",
	check: forbid(in("internal/profile"), `(?i)^(set .*width$|def \w+ (\S+\.)?(fold|widen))`, "internal/profile.Config.normalized"),
	fixtures: []fixture{
		{"internal/profile/profile.go", "", "\nfunc (s *series) fold(k int) {}\n"},
		{"internal/profile/profile.go", "func (s *series) add(origin, width, start, dur, value float64) {\n", "func (s *series) add(origin, width, start, dur, value float64) {\n\tfor end := start + dur; end > origin+width*float64(len(s.sums)); {\n\t\twidth *= 2\n\t}\n"},
	},
}, {
	name: "one artifact writer", reason: "The profile and phase artifacts have one writer each, appending the JSON field by field (internal/jsonw); a json.Marshal, MarshalIndent or Encoder there is the reflective render creeping back. Read keeps encoding/json's decoder.",
	check: forbid(in("internal/profile", "internal/phase"), `^use encoding/json\.(Marshal|MarshalIndent|NewEncoder)$`),
	fixtures: []fixture{
		{"internal/profile/artifact.go", "", "\nfunc (p *Profile) marshal() ([]byte, error) { return json.Marshal(p) }\n"},
		{"internal/phase/artifact.go", "", "\nfunc (p *Profile) marshal() ([]byte, error) { return json.MarshalIndent(p, \"\", \"  \") }\n"},
	},
}, {
	name: "one intake copy", reason: "An uploaded trace byte is written twice, compressed as it arrives and inflated into the buffer the in-memory file system adopts, then only lent (archive.Borrow). An io.ReadAll in the service regrows an entry from 512 bytes; an archive.ReadFile in the service or the loader copies a file that only gets read.",
	check: each(forbid(in("internal/serve"), `^use io\.ReadAll$`), forbid(in("internal/serve", "internal/replay"), `^use internal/archive\.ReadFile$`)),
	fixtures: []fixture{
		{"internal/serve/bundle.go", "", "\nfunc readEntry(r io.Reader) ([]byte, error) { return io.ReadAll(r) }\n"},
		{"internal/replay/fixture.go", "", "package replay\n\nimport \"metascope/internal/archive\"\n\nfunc readWhole(fs archive.FS, name string) ([]byte, error) { return archive.ReadFile(fs, name) }\n"},
	},
}, {
	name: "one place opens files", reason: "Host files are opened at the pipeline's edges only: the command, the archive file systems (internal/archive) and the obs flags (internal/obs/cli.go); a library package that opens, creates, lists or removes host files takes an io.Reader, io.Writer or archive.FS instead. obs runs no ticker: gauges are read when rendered.",
	check: each(forbid(in("internal/"), `^use os\.(Create\w*|DirFS|Lstat|Mkdir\w*|Open\w*|ReadDir|ReadFile|Remove\w*|Rename|Stat|Truncate|WriteFile)$`, "internal/archive/", "internal/obs/cli.go"),
		forbid(in("internal/obs/"), `^use time\.(NewTicker|Tick)$`)),
	fixtures: []fixture{
		{"internal/phase/fixture.go", "", "package phase\n\nimport \"os\"\n\nfunc openArtifact(name string) (*os.File, error) { return os.Open(name) }\n"},
		{"internal/obs/fixture.go", "", "package obs\n\nimport \"time\"\n\nfunc sampleEvery(d time.Duration) *time.Ticker { return time.NewTicker(d) }\n"},
	},
}, {
	name: "serve route cap", reason: "The service answers 20 routes over one store of analyses, whichever feeder produced them. A 21st is a mode creeping back: serve it from a handler that already resolves by id.",
	check: within(0, 20, "routes", forbid(in("internal/serve"), `^use net/http\.(ServeMux\.)?Handle(Func)?$`)),
	fixtures: []fixture{
		{"internal/serve/fixture.go", "", "package serve\n\nfunc (s *Server) route21() { s.mux.HandleFunc(\"GET /v1/extra\", nil) }\n"},
	},
}, {
	name: "one result store", reason: "A finished analysis is kept in one place, Server.analyses, which settle holds to CacheEntries records and which answers a resubmission from a kept job. A list, a sync.Map or a second map of analyses or results is a second cache creeping back, with a bound and a lock of its own.",
	check: func(p *program) []site { // the store is on the lines that name it
		store := forbid(in("internal/serve"), `^(use|def Var) internal/serve\.Server\.analyses\b`)(p)
		return slices.DeleteFunc(forbid(in("internal/serve"), `^(import container/list|use sync\.Map|map (\[\]|\*)*(internal/serve\.(feeder|job|session|analysis)|internal/replay\.Result|internal/cube\.Report|any|interface \{\}))$`)(p),
			func(s site) bool {
				return slices.ContainsFunc(store, func(t site) bool { return t.file == s.file && t.line == s.line })
			})
	},
	fixtures: []fixture{
		{"internal/serve/fixture.go", "", "package serve\n\nimport \"container/list\"\n\nvar recent = list.New()\n"},
		{"internal/serve/fixture.go", "", "package serve\n\nimport \"sync\"\n\ntype resultCache struct{ m sync.Map }\n"},
		{"internal/serve/fixture.go", "", "package serve\n\nimport \"metascope/internal/replay\"\n\ntype resultCache struct{ results map[string]*replay.Result }\n"},
		{"internal/serve/fixture.go", "", "package serve\n\nvar byDigest = map[string]any{}\n"},
		{"internal/serve/serve.go", "\tanalyses map[string]feeder\n", "\tanalyses map[string]feeder\n\tdone     map[string]*job\n"},
	},
}, {
	name: "one logger", reason: "Every log line goes through obs.Logger, log/slog's text handler without the time key (internal/obs/log.go), so go vet checks every call's key/value pairs; the standard log package in a program file is a second logger creeping back.",
	check: each(forbid(in(""), `^import log$`), within(1, 1, "log/slog imports in obs/log.go", forbid(in("internal/obs/log.go"), `^import log/slog$`))),
	fixtures: []fixture{
		{"internal/sim/fixture.go", "", "package sim\n\nimport \"log\"\n\nfunc logf(s string) { log.Print(s) }\n"},
	},
}, {
	name: "one binary", reason: "The toolchain is one command, cmd/metascope, whose verbs are each a function of (ctx, args, stdout); main.go alone sets up the signal context, the obs flags, the flush and the fatal line. A second main package (examples/ and bench/ aside), a second obs flag registration (tests included), or a verb that reads the global flag set or writes os.Stdout or os.Stderr copies that set-up.",
	check: each(within(1, 1, "main packages", forbid(in(""), `^package main `, "bench", "examples/")),
		forbid(func(*program, string, string, string) bool { return true }, `^(use internal/obs|sel obs)\.RegisterCLIFlags$`, "cmd/metascope/main.go", "examples/quickstart"),
		forbid(in("cmd/metascope"), `^use (os\.Std(out|err)|flag\.(CommandLine|Usage|Args?|N(Arg|Flag)|Parsed?|Set|Lookup|Visit(All)?|PrintDefaults|(Bool|Text)?(Func|Var)|(Bool|U?[Ii]nt(64)?|String|Float64|Duration)(Var)?))$`, "cmd/metascope/main.go")),
	fixtures: []fixture{
		{"cmd/mtanalyze/main.go", "", "package main\n\nfunc main() {}\n"},
		{"cmd/metascope/fixture.go", "", "package main\n\nimport \"flag\"\n\nfunc globalFlags() *flag.FlagSet { return flag.CommandLine }\n"},
		{"cmd/metascope/fixture.go", "", "package main\n\nimport \"flag\"\n\nfunc parseAll() { flag.Parse() }\n"},
		{"cmd/metascope/fixture.go", "", "package main\n\nimport (\n\t\"fmt\"\n\t\"os\"\n)\n\nfunc say(s string) { fmt.Fprintln(os.Stdout, s) }\n"},
		{"cmd/metascope/fixture.go", "", "package main\n\nimport (\n\t\"flag\"\n\n\t\"metascope/internal/obs\"\n)\n\nfunc registerAgain(fs *flag.FlagSet) { obs.RegisterCLIFlags(\"x\", fs, nil) }\n"},
		{"internal/obs/extra_test.go", "", "package obs_test\n\nimport (\n\t\"flag\"\n\n\t\"metascope/internal/obs\"\n)\n\nvar _ = obs.RegisterCLIFlags(\"x\", flag.CommandLine, nil)\n"},
	},
}, {
	name: "every internal package carries tests", reason: "Every internal package must carry tests: the conformance harness can only vouch for code the suite actually reaches.",
	check: forbid(in("internal/"), `^package \w+ tested false$`),
	fixtures: []fixture{
		{"internal/untested/untested.go", "", "package untested\n"},
	},
}, {
	name: "docs describe what is", reason: "A reader can take the docs at their word: DESIGN.md and EXPERIMENTS.md stay short enough to read whole, DESIGN.md and README.md say what the code is, not which change made it so, and every name they give in backticks exists: a repo path (globs expand; a bare *.go name anywhere in the tree), a pkg.Ident its package declares (and the field or method after it), a metascope verb and the flags its -h lists on any command line of the three docs.",
	check: checkDocs,
	fixtures: []fixture{
		{"DESIGN.md", "", strings.Repeat("\n", 1001)},
		{"EXPERIMENTS.md", "", strings.Repeat("\n", 1001)},
		{"README.md", "", "\nLive sessions landed in PR 7.\n"},
		{"README.md", "", "\nSee `internal/replay/nosuch.go`.\n"},
		{"DESIGN.md", "", "\nSee `nosuch.go`.\n"},
		{"DESIGN.md", "", "\nSee `replay.ExportTimelineProfile`.\n"},
		{"README.md", "", "\nSee `replay.LiveConfig.EmitEvery`.\n"},
		{"README.md", "", "\nRun `metascope serve -stream-tick 1s`.\n"},
		{"EXPERIMENTS.md", "", "\n```sh\nmetascope mtanalyze -in run1\n```\n"},
	},
}}

var (
	spanRE = regexp.MustCompile("`[^`\n]*`")
	refRE  = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
	pathRE = regexp.MustCompile(`^((internal|cmd|bench|script|examples)/|[A-Z].*\.(md|json)$)`)
	cmdRE  = map[bool]*regexp.Regexp{false: regexp.MustCompile("`metascope ([a-z]+)([^`]*)`"), true: regexp.MustCompile(`(?:^|[^\w-])metascope ([a-z]+)([^#|&;]*)`)} // a command line in a fenced block or not
	flagRE = regexp.MustCompile(`(?:^|\s)-[a-z][a-z0-9-]*`)
)

func checkDocs(p *program) (out []site) {
	named, goFiles := map[string]*pkg{module: p.pkgs[module]}, []string(nil) // a doc's pkg.Ident: the root, or a package under internal/ or cmd/
	for _, pk := range p.pkgs {
		for file := range pk.files {
			goFiles = append(goFiles, file, filepath.Base(file))
		}
		if pk.types != nil && (strings.HasPrefix(pk.dir, "internal/") || strings.HasPrefix(pk.dir, "cmd/")) && named[filepath.Base(pk.dir)] == nil {
			named[filepath.Base(pk.dir)] = pk
		}
	}
	for doc, text := range p.docs {
		if n := strings.Count(text, "\n"); n > 1000 && doc != "README.md" {
			out = append(out, site{file: doc, what: fmt.Sprintf("%d lines, over 1000: say what the code is, not how it got there", n)})
		}
		if pr := regexp.MustCompile(`\bPR [0-9]+`).FindString(text); pr != "" && doc != "EXPERIMENTS.md" {
			out = append(out, site{file: doc, what: fmt.Sprintf("names %s: its history is git's and EXPERIMENTS.md's", pr)})
		}
		for _, s := range spanRE.FindAllString(text, -1) {
			s = strings.Trim(s, "`")
			paths, _ := filepath.Glob(strings.TrimSuffix(s, "/"))
			m, pk := refRE.FindStringSubmatch(s), named[strings.Split(s, ".")[0]]
			switch {
			case doc == "EXPERIMENTS.md" || s == "" || strings.ContainsAny(s, " \t"):
			case pathRE.MatchString(s) && len(paths) == 0, strings.HasSuffix(s, ".go") && !slices.ContainsFunc(goFiles, func(f string) bool { ok, _ := filepath.Match(s, f); return ok }):
				out = append(out, site{file: doc, what: fmt.Sprintf("names %s, which does not exist", s)})
			case m == nil || pk == nil:
			case pk.types.Scope().Lookup(m[2]) == nil:
				out = append(out, site{file: doc, what: fmt.Sprintf("names %s.%s, which its package does not declare", m[1], m[2])})
			case m[3] != "":
				if f, _, _ := types.LookupFieldOrMethod(pk.types.Scope().Lookup(m[2]).Type(), true, pk.types, m[3]); f == nil {
					out = append(out, site{file: doc, what: fmt.Sprintf("names %s, which is no field or method of %s.%s", s, m[1], m[2])})
				}
			}
		}
		fence := false
		for _, line := range strings.Split(strings.ReplaceAll(text, "\\\n", " "), "\n") {
			fence = fence != strings.HasPrefix(line, "```")
			for _, c := range cmdRE[fence].FindAllStringSubmatch(line, -1) {
				if p.flags[c[1]] == nil {
					out = append(out, site{file: doc, what: fmt.Sprintf("runs metascope %s, which is not a verb", c[1])})
				}
				for _, f := range flagRE.FindAllString(c[2], -1) {
					if p.flags[c[1]] != nil && !slices.Contains(p.flags[c[1]], "  "+strings.TrimSpace(f)) {
						out = append(out, site{file: doc, what: fmt.Sprintf("passes %s to metascope %s, which registers no such flag", strings.TrimSpace(f), c[1])})
					}
				}
			}
		}
	}
	return out
}
