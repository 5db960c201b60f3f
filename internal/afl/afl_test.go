package afl

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/objstore"
	"imagebench/internal/scidb"
)

// --- parser --------------------------------------------------------------

func TestParseNestedCalls(t *testing.T) {
	exprs, err := Parse(`store(aggregate(filter(scan(images), vol < 18), avg(value), subj), mean_b0)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(exprs) != 1 {
		t.Fatalf("got %d statements, want 1", len(exprs))
	}
	store, ok := exprs[0].(*Call)
	if !ok || store.Fn != "store" || len(store.Args) != 2 {
		t.Fatalf("outer call: %v", exprs[0])
	}
	agg := store.Args[0].(*Call)
	if agg.Fn != "aggregate" || len(agg.Args) != 3 {
		t.Fatalf("aggregate: %v", agg)
	}
	filt := agg.Args[0].(*Call)
	if filt.Fn != "filter" {
		t.Fatalf("filter: %v", filt)
	}
	if _, ok := filt.Args[1].(*Cmp); !ok {
		t.Fatalf("predicate: %v", filt.Args[1])
	}
}

func TestParseMultiStatement(t *testing.T) {
	exprs, err := Parse(`
		-- a comment
		store(scan(a), b);
		store(apply(scan(b), clean), c)
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(exprs) != 2 {
		t.Fatalf("got %d statements, want 2", len(exprs))
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"scan(a",
		"scan(a))",
		"scan(a) scan(b)",
		"'open",
		"filter(scan(a), x !! 3)",
		"scan(,)",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParseStringStability(t *testing.T) {
	src := `store(apply(filter(scan(a), x < 3.5), smooth), out)`
	e1, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Parse(e1[0].String())
	if err != nil {
		t.Fatalf("reparse %q: %v", e1[0], err)
	}
	if e1[0].String() != e2[0].String() {
		t.Errorf("unstable print: %q vs %q", e1[0], e2[0])
	}
}

func TestLexNoPanic(t *testing.T) {
	f := func(s string) bool {
		_, _ = Parse(s)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- evaluation ----------------------------------------------------------

// volChunk is the decoded value of a test chunk: one image volume.
type volChunk struct {
	subj, vol int
	pixels    []float64
}

// testEngine ingests nSubj×nVols chunks via the aio path and returns the
// engine plus a ready environment with dims (subj aligned, vol not —
// mirroring the paper: chunking is aligned with subjects, the b0 filter
// cuts along the volume dimension).
func testEngine(t *testing.T, nSubj, nVols int) (*scidb.Engine, *Env) {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 2
	cl := cluster.New(cfg)
	eng := scidb.New(cl, objstore.New(), cost.Default(), scidb.DefaultConfig())
	var chunks []scidb.Chunk
	for s := 0; s < nSubj; s++ {
		for v := 0; v < nVols; v++ {
			chunks = append(chunks, scidb.Chunk{
				Coords: fmt.Sprintf("s%02d/v%03d", s, v),
				Value:  volChunk{subj: s, vol: v, pixels: []float64{float64(v), float64(v + 1)}},
				Size:   1 << 20,
			})
		}
	}
	if _, err := eng.IngestAio("images", chunks, 2.5); err != nil {
		t.Fatal(err)
	}
	env := NewEnv()
	env.DefineDims(func(c scidb.Chunk) map[string]float64 {
		v := c.Value.(volChunk)
		return map[string]float64{"subj": float64(v.subj), "vol": float64(v.vol)}
	}, "subj")
	return eng, env
}

func TestRunFilterAndAggregate(t *testing.T) {
	const nSubj, nVols, nB0 = 2, 8, 3
	eng, env := testEngine(t, nSubj, nVols)
	env.DefineAggregate("avg", cost.Mean, func(key string, group []scidb.Chunk) scidb.Chunk {
		var sum float64
		var n int
		for _, c := range group {
			for _, p := range c.Value.(volChunk).pixels {
				sum += p
				n++
			}
		}
		return scidb.Chunk{Coords: key, Value: sum / float64(n), Size: group[0].Size}
	})

	res, err := Run(eng, fmt.Sprintf(
		`store(aggregate(filter(scan(images), vol < %d), avg(value), subj), mean_b0)`, nB0), env)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Stored["mean_b0"]
	if out == nil {
		t.Fatal("mean_b0 not stored")
	}
	if len(out.Chunks) != nSubj {
		t.Fatalf("got %d result chunks, want %d", len(out.Chunks), nSubj)
	}
	// mean of pixels {0,1, 1,2, 2,3} = 1.5 for vols 0..2.
	for _, c := range out.Chunks {
		if got := c.Value.(float64); got != 1.5 {
			t.Errorf("chunk %s mean = %v, want 1.5", c.Coords, got)
		}
	}
	// The stored array is registered: a later program can scan it.
	if _, err := eng.Lookup("mean_b0"); err != nil {
		t.Errorf("stored array not in catalog: %v", err)
	}
}

func TestMisalignedFilterCostsMore(t *testing.T) {
	// The same selection along an aligned vs a misaligned dimension:
	// misaligned pays chunk reorganization (Fig 12a).
	run := func(pred string) float64 {
		eng, env := testEngine(t, 4, 6)
		res, err := Run(eng, fmt.Sprintf(`store(filter(scan(images), %s), out)`, pred), env)
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Stored["out"].Done().End)
	}
	aligned := run("subj < 2")
	misaligned := run("vol < 3")
	if misaligned <= aligned {
		t.Errorf("misaligned filter (%v) should cost more than aligned (%v)", misaligned, aligned)
	}
}

func TestRunApply(t *testing.T) {
	eng, env := testEngine(t, 1, 4)
	env.DefineKernel("double", cost.Denoise, func(c scidb.Chunk) scidb.Chunk {
		v := c.Value.(volChunk)
		out := make([]float64, len(v.pixels))
		for i, p := range v.pixels {
			out[i] = 2 * p
		}
		return scidb.Chunk{Coords: c.Coords, Value: volChunk{v.subj, v.vol, out}, Size: c.Size}
	})
	res, err := Run(eng, `store(apply(scan(images), double), out)`, env)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Stored["out"]
	if len(out.Chunks) != 4 {
		t.Fatalf("got %d chunks, want 4", len(out.Chunks))
	}
	if c0 := out.Chunks[0].Value.(volChunk); c0.pixels[1] != 2 {
		t.Errorf("kernel did not run: %v", c0.pixels)
	}
}

func TestRunIterate(t *testing.T) {
	eng, env := testEngine(t, 1, 3)
	var iterations []int
	env.DefineIteration("clip", cost.CoaddIter, func(it int, chunks []scidb.Chunk) []scidb.Chunk {
		iterations = append(iterations, it)
		return chunks
	})
	res, err := Run(eng, `store(iterate(scan(images), 2, clip), coadd)`, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(iterations) != 2 || iterations[0] != 0 || iterations[1] != 1 {
		t.Fatalf("iterations ran %v, want [0 1]", iterations)
	}
	if n := len(res.Stored["coadd"].Chunks); n != 3 {
		t.Fatalf("coadd has %d chunks, want 3", n)
	}
}

func TestRunErrors(t *testing.T) {
	eng, env := testEngine(t, 1, 2)
	cases := []struct {
		name, src, wantSub string
	}{
		{"unknown array", `scan(nope)`, "unknown array"},
		{"unknown op", `frobnicate(scan(images))`, "unknown operator"},
		{"unknown kernel", `apply(scan(images), nope)`, "unknown kernel"},
		{"unknown agg", `aggregate(scan(images), nope(v), subj)`, "unknown aggregate"},
		{"unknown iter", `iterate(scan(images), 2, nope)`, "unknown iteration"},
		{"bad iterate count", `iterate(scan(images), 0, nope)`, "positive integer"},
		{"bad store target", `store(scan(images), 3)`, "store target"},
		{"bare ident", `images`, "operator call"},
		{"scan argc", `scan(a, b)`, "takes 1 arguments"},
		{"bad predicate", `filter(scan(images), double(vol))`, "dimension < number"},
		{"number on the left", `filter(scan(images), 3 < vol)`, "dimension < number"},
		{"ungrouped aggregate", `aggregate(scan(images), avg(v))`, "grouping dimension"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Run(eng, tc.src, env)
			if err == nil {
				t.Fatalf("expected error containing %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestFilterWithoutDims(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 1
	eng := scidb.New(cluster.New(cfg), objstore.New(), cost.Default(), scidb.DefaultConfig())
	if _, err := eng.IngestAio("a", []scidb.Chunk{{Coords: "c0", Size: 1}}, 2.5); err != nil {
		t.Fatal(err)
	}
	_, err := Run(eng, `filter(scan(a), x < 1)`, NewEnv())
	if err == nil || !strings.Contains(err.Error(), "DefineDims") {
		t.Fatalf("expected DefineDims error, got %v", err)
	}
}

// TestRemovedProductionsFailWithLine pins what the grammar no longer
// has: the paper's programs never used these, so each is a parse or
// operator error naming its line.
func TestRemovedProductionsFailWithLine(t *testing.T) {
	eng, env := testEngine(t, 1, 2)
	env.DefineKernel("id", cost.Denoise, func(c scidb.Chunk) scidb.Chunk { return c })
	for _, src := range []string{
		"scan(images);\nstream(scan(images), id)",
		"scan(images);\nwindow(scan(images), id)",
		"scan(images);\nfilter(scan(images), vol < 1 and subj < 1)",
		"scan(images);\nfilter(scan(images), vol >= 1)",
		"scan(images);\nfilter(scan(images), vol = 1)",
		"scan(images);\nstore(scan(images), 'name')",
	} {
		_, err := Run(eng, src, env)
		if err == nil || !strings.Contains(err.Error(), "line 2:") {
			t.Errorf("Run(%q) = %v, want an error at line 2", src, err)
		}
	}
}

// FuzzParse holds the parser to three properties on any input: it never
// panics; every error is the empty-program error or names a line of the
// input (one past the last for an unexpected end); and an accepted
// program prints to source that parses to the same program.
func FuzzParse(f *testing.F) {
	f.Add("store(aggregate(filter(scan(Images), vol < 3), meanvol(img), subj), mean_b0);\nstore(apply(scan(mean_b0), otsu), Masks)")
	f.Add("store(iterate(scan(PatchStacks), 2, clip), Coadds)")
	f.Add("\n\t-- a comment\n\tstore(scan(a), b);\n\tstore(apply(scan(b), clean), c)\n")
	f.Add("")
	f.Add("scan(a")
	f.Fuzz(func(t *testing.T, src string) {
		exprs, err := Parse(src)
		if err != nil {
			msg := err.Error()
			if msg == "afl: empty program" {
				return
			}
			var n int
			if _, serr := fmt.Sscanf(msg, "afl: line %d:", &n); serr != nil {
				t.Fatalf("%q: error %q names no line", src, msg)
			}
			if lines := strings.Count(src, "\n") + 1; n < 1 || n > lines+1 {
				t.Fatalf("%q: error %q names line %d of %d", src, msg, n, lines)
			}
			return
		}
		printed := printProgram(exprs)
		again, err := Parse(printed)
		if err != nil || printProgram(again) != printed {
			t.Fatalf("%q parses, but its printed form %q parses to %v (%v)", src, printed, again, err)
		}
	})
}

func printProgram(exprs []Expr) string {
	stmts := make([]string, len(exprs))
	for i, e := range exprs {
		stmts[i] = e.String()
	}
	return strings.Join(stmts, ";\n")
}
