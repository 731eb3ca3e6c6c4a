package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// siteLines maps each shape to the lines of this file marked with its
// "// site:<shape>" comment, in source order, as callerLoc formats them.
func siteLines(t *testing.T) map[string][]string {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "callerloc_test.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sites := map[string][]string{}
	for _, group := range file.Comments {
		for _, c := range group.List {
			if shape, ok := strings.CutPrefix(c.Text, "// site:"); ok {
				line := fset.Position(c.Pos()).Line
				sites[shape] = append(sites[shape], "callerloc_test.go:"+strconv.Itoa(line))
			}
		}
	}
	return sites
}

// Both paths name the exact line, on the cold call and through the cache.
func TestCallerLocStable(t *testing.T) {
	want := siteLines(t)["stable"]
	for pass := 0; pass < 2; pass++ {
		chain, ref := callerLoc(0), callersLoc(0) // site:stable
		if chain != want[0] || ref != want[0] {
			t.Fatalf("pass %d: frame chain %q, runtime.Callers %q, want %q", pass, chain, ref, want[0])
		}
	}
}

// The entries of each type, behind interfaces for the interface shape.
type (
	runtimeAPI interface {
		CreateProcess(fn WorkFunc, index int, arg any) (*Process, error)
		CreateChannel(from, to *Process) (*Channel, error)
		CreateBundle(usage BundleUsage, chans ...*Channel) (*Bundle, error)
		StartAll() (*Self, error)
		StopMain(status int) error
	}
	channelAPI interface {
		Write(format string, args ...any) error
		Read(format string, args ...any) error
		HasData() (bool, error)
	}
	bundleAPI interface {
		Broadcast(format string, args ...any) error
		Scatter(format string, args ...any) error
		Gather(format string, args ...any) error
		Reduce(op ReduceOp, format string, args ...any) error
		Select() (int, error)
		TrySelect() (int, error)
	}
	selfAPI interface {
		Log(text string) error
		StartTime() float64
		EndTime() float64
	}
)

// callShapeFixture is a running two-rank program logging for Jumpshot,
// on which every API entry returns without blocking: Write, Read and
// Gather get a format that does not parse, the other collectives a
// bundle made for another usage, and the configuration calls the wrong
// phase. Each still resolves its location first. HasData,
// Log, StartTime, EndTime and StopMain run for real, on PI_MAIN's rank.
type callShapeFixture struct {
	r    *Runtime
	ch   *Channel // worker -> PI_MAIN
	b    *Bundle  // UsageGather over ch
	self *Self    // PI_MAIN

	rt  runtimeAPI
	ich channelAPI
	ib  bundleAPI
	is  selfAPI

	seen chan struct{} // the go shape: one send a location
}

func newCallShapeFixture(t *testing.T) *callShapeFixture {
	cfg, _ := testConfig(t, 2, "j")
	r := mustRuntime(t, cfg)
	p, err := r.CreateProcess(func(*Self, int, any) int { return 0 }, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := r.CreateChannel(p, r.MainProc())
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.CreateBundle(UsageGather, ch)
	if err != nil {
		t.Fatal(err)
	}
	self, err := r.StartAll()
	if err != nil {
		t.Fatal(err)
	}
	// A shape's own StopMain may have stopped the program already.
	t.Cleanup(func() { _ = r.StopMain(0) })
	return &callShapeFixture{r: r, ch: ch, b: b, self: self,
		rt: r, ich: ch, ib: b, is: self, seen: make(chan struct{})}
}

func directShape(f *callShapeFixture) {
	f.r.CreateProcess(nil, 0, nil) // site:direct
	f.r.CreateChannel(nil, nil)    // site:direct
	f.r.CreateBundle(UsageGather)  // site:direct
	f.r.StartAll()                 // site:direct
	f.ch.Write("%q")               // site:direct
	f.ch.Read("%q")                // site:direct
	f.ch.HasData()                 // site:direct
	f.b.Broadcast("%d", 1)         // site:direct
	f.b.Scatter("%q")              // site:direct
	f.b.Gather("%q")               // site:direct
	f.b.Reduce(OpSum, "%d")        // site:direct
	f.b.Select()                   // site:direct
	f.b.TrySelect()                // site:direct
	f.self.Log("direct")           // site:direct
	f.self.StartTime()             // site:direct
	f.self.EndTime()               // site:direct
	f.r.StopMain(0)                // site:direct
}

// Each call goes through the method's compiler-generated -fm wrapper.
func methodValueShape(f *callShapeFixture) {
	createProcess, createChannel, createBundle := f.r.CreateProcess, f.r.CreateChannel, f.r.CreateBundle
	startAll, stopMain := f.r.StartAll, f.r.StopMain
	write, read, hasData := f.ch.Write, f.ch.Read, f.ch.HasData
	broadcast, scatter, gather, reduce := f.b.Broadcast, f.b.Scatter, f.b.Gather, f.b.Reduce
	sel, trySelect := f.b.Select, f.b.TrySelect
	logText, startTime, endTime := f.self.Log, f.self.StartTime, f.self.EndTime
	createProcess(nil, 0, nil) // site:methodvalue
	createChannel(nil, nil)    // site:methodvalue
	createBundle(UsageGather)  // site:methodvalue
	startAll()                 // site:methodvalue
	write("%q")                // site:methodvalue
	read("%q")                 // site:methodvalue
	hasData()                  // site:methodvalue
	broadcast("%d", 1)         // site:methodvalue
	scatter("%q")              // site:methodvalue
	gather("%q")               // site:methodvalue
	reduce(OpSum, "%d")        // site:methodvalue
	sel()                      // site:methodvalue
	trySelect()                // site:methodvalue
	logText("method value")    // site:methodvalue
	startTime()                // site:methodvalue
	endTime()                  // site:methodvalue
	stopMain(0)                // site:methodvalue
}

// Deferred calls run last-in first-out: StopMain is deferred first.
func deferShape(f *callShapeFixture) {
	defer f.r.StopMain(0)                // site:defer
	defer f.self.EndTime()               // site:defer
	defer f.self.StartTime()             // site:defer
	defer f.self.Log("defer")            // site:defer
	defer f.b.TrySelect()                // site:defer
	defer f.b.Select()                   // site:defer
	defer f.b.Reduce(OpSum, "%d")        // site:defer
	defer f.b.Gather("%q")               // site:defer
	defer f.b.Scatter("%q")              // site:defer
	defer f.b.Broadcast("%d", 1)         // site:defer
	defer f.ch.HasData()                 // site:defer
	defer f.ch.Read("%q")                // site:defer
	defer f.ch.Write("%q")               // site:defer
	defer f.r.StartAll()                 // site:defer
	defer f.r.CreateBundle(UsageGather)  // site:defer
	defer f.r.CreateChannel(nil, nil)    // site:defer
	defer f.r.CreateProcess(nil, 0, nil) // site:defer
}

// Each goroutine ends inside callerLoc (the test's locCheck exits it),
// so none of them runs on into a rank another one is using.
func goShape(f *callShapeFixture) {
	go f.r.CreateProcess(nil, 0, nil) // site:go
	<-f.seen
	go f.r.CreateChannel(nil, nil) // site:go
	<-f.seen
	go f.r.CreateBundle(UsageGather) // site:go
	<-f.seen
	go f.r.StartAll() // site:go
	<-f.seen
	go f.ch.Write("%q") // site:go
	<-f.seen
	go f.ch.Read("%q") // site:go
	<-f.seen
	go f.ch.HasData() // site:go
	<-f.seen
	go f.b.Broadcast("%d", 1) // site:go
	<-f.seen
	go f.b.Scatter("%q") // site:go
	<-f.seen
	go f.b.Gather("%q") // site:go
	<-f.seen
	go f.b.Reduce(OpSum, "%d") // site:go
	<-f.seen
	go f.b.Select() // site:go
	<-f.seen
	go f.b.TrySelect() // site:go
	<-f.seen
	go f.self.Log("go") // site:go
	<-f.seen
	go f.self.StartTime() // site:go
	<-f.seen
	go f.self.EndTime() // site:go
	<-f.seen
	go f.r.StopMain(0) // site:go
	<-f.seen
}

// Closures called through a slice, so each is a frame of its own.
func closureShape(f *callShapeFixture) {
	for _, call := range []func(){
		func() { f.r.CreateProcess(nil, 0, nil) }, // site:closure
		func() { f.r.CreateChannel(nil, nil) },    // site:closure
		func() { f.r.CreateBundle(UsageGather) },  // site:closure
		func() { f.r.StartAll() },                 // site:closure
		func() { f.ch.Write("%q") },               // site:closure
		func() { f.ch.Read("%q") },                // site:closure
		func() { f.ch.HasData() },                 // site:closure
		func() { f.b.Broadcast("%d", 1) },         // site:closure
		func() { f.b.Scatter("%q") },              // site:closure
		func() { f.b.Gather("%q") },               // site:closure
		func() { f.b.Reduce(OpSum, "%d") },        // site:closure
		func() { f.b.Select() },                   // site:closure
		func() { f.b.TrySelect() },                // site:closure
		func() { f.self.Log("closure") },          // site:closure
		func() { f.self.StartTime() },             // site:closure
		func() { f.self.EndTime() },               // site:closure
		func() { f.r.StopMain(0) },                // site:closure
	} {
		call()
	}
}

func interfaceShape(f *callShapeFixture) {
	f.rt.CreateProcess(nil, 0, nil) // site:interface
	f.rt.CreateChannel(nil, nil)    // site:interface
	f.rt.CreateBundle(UsageGather)  // site:interface
	f.rt.StartAll()                 // site:interface
	f.ich.Write("%q")               // site:interface
	f.ich.Read("%q")                // site:interface
	f.ich.HasData()                 // site:interface
	f.ib.Broadcast("%d", 1)         // site:interface
	f.ib.Scatter("%q")              // site:interface
	f.ib.Gather("%q")               // site:interface
	f.ib.Reduce(OpSum, "%d")        // site:interface
	f.ib.Select()                   // site:interface
	f.ib.TrySelect()                // site:interface
	f.is.Log("interface")           // site:interface
	f.is.StartTime()                // site:interface
	f.is.EndTime()                  // site:interface
	f.rt.StopMain(0)                // site:interface
}

// Small user helpers, each inlined into inlineShape at default flags
// (go test -gcflags=-m lists them), so the call site is a logical frame
// inside a physical one.
func inlCreateProcess(f *callShapeFixture) { f.r.CreateProcess(nil, 0, nil) } // site:inline
func inlCreateChannel(f *callShapeFixture) { f.r.CreateChannel(nil, nil) }    // site:inline
func inlCreateBundle(f *callShapeFixture)  { f.r.CreateBundle(UsageGather) }  // site:inline
func inlStartAll(f *callShapeFixture)      { f.r.StartAll() }                 // site:inline
func inlWrite(f *callShapeFixture)         { f.ch.Write("%q") }               // site:inline
func inlRead(f *callShapeFixture)          { f.ch.Read("%q") }                // site:inline
func inlHasData(f *callShapeFixture)       { f.ch.HasData() }                 // site:inline
func inlBroadcast(f *callShapeFixture)     { f.b.Broadcast("%d", 1) }         // site:inline
func inlScatter(f *callShapeFixture)       { f.b.Scatter("%q") }              // site:inline
func inlGather(f *callShapeFixture)        { f.b.Gather("%q") }               // site:inline
func inlReduce(f *callShapeFixture)        { f.b.Reduce(OpSum, "%d") }        // site:inline
func inlSelect(f *callShapeFixture)        { f.b.Select() }                   // site:inline
func inlTrySelect(f *callShapeFixture)     { f.b.TrySelect() }                // site:inline
func inlLog(f *callShapeFixture)           { f.self.Log("inline") }           // site:inline
func inlStartTime(f *callShapeFixture)     { f.self.StartTime() }             // site:inline
func inlEndTime(f *callShapeFixture)       { f.self.EndTime() }               // site:inline
func inlStopMain(f *callShapeFixture)      { f.r.StopMain(0) }                // site:inline

func inlineShape(f *callShapeFixture) {
	inlCreateProcess(f)
	inlCreateChannel(f)
	inlCreateBundle(f)
	inlStartAll(f)
	inlWrite(f)
	inlRead(f)
	inlHasData(f)
	inlBroadcast(f)
	inlScatter(f)
	inlGather(f)
	inlReduce(f)
	inlSelect(f)
	inlTrySelect(f)
	inlLog(f)
	inlStartTime(f)
	inlEndTime(f)
	inlStopMain(f)
}

// Every API entry that reports a location, in every shape a user can
// call it, names the exact line of the call, and the frame chain agrees
// with runtime.Callers for the same frame. Except in two shapes: a go or
// defer statement calls the method from a compiler-made closure
// (gowrap, deferwrap) that runtime.Callers elides, so it names
// runtime.goexit or the deferring function's closing brace, where the
// closure's frame, on the chain, sits at the statement.
func TestCallerLocCallShapes(t *testing.T) {
	sites := siteLines(t)
	shapes := []struct {
		name    string
		run     func(*callShapeFixture)
		goexit  bool // the location is seen on a goroutine of its own
		wrapped bool // runtime.Callers elides the statement's closure
	}{
		{"direct", directShape, false, false},
		{"methodvalue", methodValueShape, false, false},
		{"defer", deferShape, false, true},
		{"go", goShape, true, true},
		{"closure", closureShape, false, false},
		{"interface", interfaceShape, false, false},
		{"inline", inlineShape, false, false},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			want := sites[sh.name]
			if sh.name == "defer" {
				want = slices.Clone(want)
				slices.Reverse(want)
			}
			if len(want) != 17 {
				t.Fatalf("%d sites marked, want one for each of the 17 entries", len(want))
			}
			f := newCallShapeFixture(t)
			var (
				mu       sync.Mutex
				got, ref []string
			)
			locCheck = func(loc, callers string) {
				mu.Lock()
				got, ref = append(got, loc), append(ref, callers)
				mu.Unlock()
				if sh.goexit {
					f.seen <- struct{}{}
					runtime.Goexit()
				}
			}
			t.Cleanup(func() { locCheck = nil }) // before the fixture's StopMain
			sh.run(f)

			mu.Lock()
			defer mu.Unlock()
			if sh.wrapped && runtime.GOARCH != "amd64" {
				return // no frame chain: the runtime.Callers answer is all there is
			}
			if !sh.wrapped && !slices.Equal(got, ref) {
				t.Errorf("frame chain disagrees with runtime.Callers:\n chain   %q\n callers %q", got, ref)
			}
			if !slices.Equal(got, want) {
				t.Errorf("locations\n got  %q\n want %q", got, want)
			}
		})
	}
	if runtime.GOARCH == "amd64" && !wrapperCached() {
		t.Error("no wrapper PC cached: the method values never reached the fallback")
	}
}

func wrapperCached() bool {
	locMu.RLock()
	defer locMu.RUnlock()
	for _, loc := range locCache {
		if loc == "" {
			return true
		}
	}
	return false
}

// Every non-test function in this package that walks the frame-pointer
// chain, or calls what does, carries //go:noinline: the chain holds
// physical frames only. A closure cannot carry the directive, so none
// may make such a call.
func TestLocCallersAreNoinline(t *testing.T) {
	probes := map[string]bool{"getfp": true, "frameLoc": true, "callerLoc": true}
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var marked []string
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			probing := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					ast.Inspect(n.Body, func(n ast.Node) bool {
						if call, ok := n.(*ast.CallExpr); ok && probes[calleeName(call)] {
							t.Errorf("%s: a closure in %s calls %s", fset.Position(call.Pos()), fn.Name.Name, calleeName(call))
						}
						return true
					})
					return false
				case *ast.CallExpr:
					probing = probing || probes[calleeName(n)]
				}
				return true
			})
			if !probing {
				continue
			}
			if !hasDirective(fn.Doc, "//go:noinline") {
				t.Errorf("%s: %s resolves a call site but is not //go:noinline", fset.Position(fn.Pos()), fn.Name.Name)
			}
			marked = append(marked, fn.Name.Name)
		}
	}
	// The 17 located entries, Abort, callerLoc and frameLoc.
	if len(marked) < 20 {
		t.Errorf("found only %d functions resolving a call site: %v", len(marked), marked)
	}
}

func calleeName(call *ast.CallExpr) string {
	if id, ok := call.Fun.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive {
			return true
		}
	}
	return false
}

// locBench stands in for an API method: noinline, asking for the line
// that called it.
type locBench struct{}

//go:noinline
func (locBench) framechain() string { return callerLoc(1) }

//go:noinline
func (locBench) callers() string { return callersLoc(1) }

var locSink string

// BenchmarkCallerLoc is the per-call cost of a call-site location once
// the site is cached: callerLoc (the frame-pointer chain on amd64) and
// the runtime.Callers path it replaces there.
func BenchmarkCallerLoc(b *testing.B) {
	var api locBench
	b.Run("framechain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			locSink = api.framechain()
		}
	})
	b.Run("callers", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			locSink = api.callers()
		}
	})
}
