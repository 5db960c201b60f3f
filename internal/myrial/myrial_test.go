package myrial

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"imagebench/internal/cluster"
	"imagebench/internal/cost"
	"imagebench/internal/myria"
	"imagebench/internal/objstore"
)

// --- lexer -------------------------------------------------------------

func TestLexKindsAndKeywords(t *testing.T) {
	toks, err := Lex("T1 = SCAN(Images); -- comment\n# python comment\n[select T1.img from T1 where x < 3.5 and y = z];")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	want := []TokenKind{
		TokIdent, TokEq, TokKeyword, TokLParen, TokIdent, TokRParen, TokSemi,
		TokLBracket, TokKeyword, TokIdent, TokDot, TokIdent, TokKeyword, TokIdent,
		TokKeyword, TokIdent, TokLt, TokNumber, TokIdent, TokIdent, TokEq,
		TokIdent, TokRBracket, TokSemi, TokEOF,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(kinds), len(want), toks)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d: got %s, want %s", i, kinds[i], want[i])
		}
	}
	// Keywords canonicalize to upper case regardless of source case.
	if toks[8].Text != "SELECT" {
		t.Errorf("keyword not canonicalized: %q", toks[8].Text)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", "a ! b", "'newline\nin string'", "a > b"} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q): expected error", src)
		}
	}
}

func TestLexLineNumbers(t *testing.T) {
	toks, err := Lex("a\nb\n\nc")
	if err != nil {
		t.Fatal(err)
	}
	lines := []int{1, 2, 4}
	for i, want := range lines {
		if toks[i].Line != want {
			t.Errorf("token %d line = %d, want %d", i, toks[i].Line, want)
		}
	}
}

// --- parser ------------------------------------------------------------

// fig7 is the paper's Figure 7 MyriaL program (denoising step of the
// neuroscience use case), modulo the connection boilerplate and the
// paper's stale T1. qualifiers inside the EMIT (which reference an alias
// that is out of scope after the join).
const fig7 = `
T1 = SCAN(Images);
T2 = SCAN(Mask);
Joined = [SELECT T1.subjId, T1.imgId, T1.img, T2.mask
          FROM T1, T2
          WHERE T1.subjId = T2.subjId];
Denoised = [FROM Joined EMIT
            PYUDF(Denoise, img, mask) AS img, subjId, imgId];
STORE(Denoised, DenoisedImages);
`

func TestParseFig7(t *testing.T) {
	prog, err := Parse(fig7)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Stmts) != 5 {
		t.Fatalf("got %d statements, want 5", len(prog.Stmts))
	}
	scan, ok := prog.Stmts[0].(*AssignStmt)
	if !ok || scan.Name != "T1" {
		t.Fatalf("stmt 0: %v", prog.Stmts[0])
	}
	if se, ok := scan.Expr.(*ScanExpr); !ok || se.Table != "Images" {
		t.Fatalf("stmt 0 expr: %v", scan.Expr)
	}
	join, ok := prog.Stmts[2].(*AssignStmt)
	if !ok {
		t.Fatalf("stmt 2: %v", prog.Stmts[2])
	}
	sel, ok := join.Expr.(*SelectExpr)
	if !ok {
		t.Fatalf("stmt 2 expr: %T", join.Expr)
	}
	if len(sel.From) != 2 || len(sel.Where) != 1 || len(sel.Items) != 4 {
		t.Fatalf("join shape: from=%d where=%d items=%d", len(sel.From), len(sel.Where), len(sel.Items))
	}
	emit, ok := prog.Stmts[3].(*AssignStmt)
	if !ok {
		t.Fatalf("stmt 3: %v", prog.Stmts[3])
	}
	ee, ok := emit.Expr.(*EmitExpr)
	if !ok || ee.From != "Joined" {
		t.Fatalf("stmt 3 expr: %v", emit.Expr)
	}
	if ee.Items[0].Call == nil || ee.Items[0].Call.Func != "Denoise" || ee.Items[0].Alias != "img" {
		t.Fatalf("emit item 0: %+v", ee.Items[0])
	}
	st, ok := prog.Stmts[4].(*StoreStmt)
	if !ok || st.Rel != "Denoised" || st.As != "DenoisedImages" {
		t.Fatalf("stmt 4: %v", prog.Stmts[4])
	}
}

func TestParseRoundTrip(t *testing.T) {
	// String() output of a parsed program parses back to the same string.
	prog, err := Parse(fig7)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(prog.String())
	if err != nil {
		t.Fatalf("reparse: %v\nprinted:\n%s", err, prog.String())
	}
	if prog.String() != again.String() {
		t.Errorf("round trip mismatch:\n%s\nvs\n%s", prog.String(), again.String())
	}
}

// TestParseGroupBy parses MyriaL's aggregate shorthand, the only
// group-by the grammar has: the plain column items are the key. An
// explicit GROUP BY clause is a parse error.
func TestParseGroupBy(t *testing.T) {
	prog, err := Parse(`M = [SELECT T.subjId, PYUDA(MeanVol, T.img) AS mean FROM T];`)
	if err != nil {
		t.Fatal(err)
	}
	sel := prog.Stmts[0].(*AssignStmt).Expr.(*SelectExpr)
	if sel.Items[0].Col == nil || sel.Items[0].Col.Col != "subjId" {
		t.Fatalf("grouping item: %+v", sel.Items[0])
	}
	if !sel.Items[1].Call.Aggregate || sel.Items[1].Alias != "mean" {
		t.Errorf("aggregate item: %+v", sel.Items[1])
	}
	if _, err := Parse(`M = [SELECT T.subjId, PYUDA(MeanVol, T.img) AS mean FROM T GROUP BY T.subjId];`); err == nil {
		t.Error("GROUP BY parsed")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                                  // empty program
		"T1 = SCAN(Images)",                 // missing semicolon
		"T1 = SELECT x FROM y;",             // select outside brackets
		"T1 = [SELECT FROM y];",             // missing items
		"T1 = [FROM x EMIT];",               // missing emit items
		"STORE(a);",                         // missing output name
		"T1 = [SELECT a FROM b WHERE c=];",  // missing operand
		"= SCAN(x);",                        // missing name
		"T1 = [SELECT a FROM b GROUP c];",   // GROUP without BY
		"T1 = [SELECT a.b.c FROM b];",       // over-qualified column
		"T1 = SCAN(Images); T1 = [WHERE];",  // bad bracket form
		"T1 = [SELECT * FROM a WHERE 1<2] ", // missing bracket close semi
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

// quick-check: the lexer terminates and never panics on arbitrary input.
func TestLexNoPanic(t *testing.T) {
	f := func(s string) bool {
		_, _ = Lex(s)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// quick-check: printing any successfully parsed identifier program is
// stable under reparse.
func TestParsePrintStability(t *testing.T) {
	f := func(a, b uint8) bool {
		src := fmt.Sprintf("R%d = SCAN(T%d); STORE(R%d, Out%d);", a, b, a, a)
		p1, err := Parse(src)
		if err != nil {
			return false
		}
		p2, err := Parse(p1.String())
		return err == nil && p1.String() == p2.String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// --- execution ---------------------------------------------------------

// testEngine builds a small Myria deployment with Images and Mask base
// tables mirroring the neuroscience schema: nSubj subjects × nVols
// volumes, each volume a float64 payload; one mask per subject.
func testEngine(t *testing.T, nSubj, nVols int) (*myria.Engine, *Env) {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 2
	cl := cluster.New(cfg)
	store := objstore.New()
	for s := 0; s < nSubj; s++ {
		for v := 0; v < nVols; v++ {
			key := fmt.Sprintf("images/s%02d/v%03d", s, v)
			store.Put(key, []byte{byte(s), byte(v)}, 1<<20)
		}
		store.Put(fmt.Sprintf("masks/s%02d", s), []byte{byte(s)}, 1<<10)
	}
	eng := myria.New(cl, store, cost.Default(), myria.DefaultConfig())

	imgSchema := Schema{Key: []string{"subjId", "imgId"}, Cols: []string{"subjId", "imgId", "img"}}
	images, err := eng.Ingest("Images", "images/", func(o objstore.Object) []myria.Tuple {
		subj, vol := int(o.Data[0]), int(o.Data[1])
		row := Row{
			"subjId": {V: fmt.Sprintf("s%02d", subj)},
			"imgId":  {V: vol},
			"img":    {V: float64(vol), Size: o.ModelBytes},
		}
		return []myria.Tuple{imgSchema.TupleOf(row)}
	})
	if err != nil {
		t.Fatal(err)
	}
	maskSchema := Schema{Key: []string{"subjId"}, Cols: []string{"subjId", "mask"}}
	masks, err := eng.Ingest("Mask", "masks/", func(o objstore.Object) []myria.Tuple {
		row := Row{
			"subjId": {V: fmt.Sprintf("s%02d", int(o.Data[0]))},
			"mask":   {V: 0.5, Size: o.ModelBytes},
		}
		return []myria.Tuple{maskSchema.TupleOf(row)}
	})
	if err != nil {
		t.Fatal(err)
	}

	env := NewEnv()
	env.DefineTable("Images", imgSchema, images)
	env.DefineTable("Mask", maskSchema, masks)
	return eng, env
}

func TestRunFig7(t *testing.T) {
	const nSubj, nVols = 3, 4
	eng, env := testEngine(t, nSubj, nVols)
	env.DefineUDF("Denoise", cost.Denoise, func(args []Cell) []Cell {
		img := args[0].V.(float64)
		mask := args[1].V.(float64)
		return []Cell{{V: img + mask, Size: args[0].Size}}
	})

	res, err := Run(eng, fig7, env)
	if err != nil {
		t.Fatal(err)
	}
	out, ok := res.Stored["DenoisedImages"]
	if !ok {
		t.Fatalf("missing stored output; have %v", keysOf(res.Stored))
	}
	rows := Rows(out)
	if len(rows) != nSubj*nVols {
		t.Fatalf("got %d denoised rows, want %d", len(rows), nSubj*nVols)
	}
	for _, r := range rows {
		img := r["img"].V.(float64)
		want := float64(r["imgId"].V.(int)) + 0.5
		if img != want {
			t.Errorf("subj %v vol %v: img=%v, want %v", r["subjId"].V, r["imgId"].V, img, want)
		}
		if _, hasMask := r["mask"]; hasMask {
			t.Error("mask column leaked through EMIT projection")
		}
	}
	if res.Done == nil {
		t.Fatal("nil completion handle")
	}
}

func TestRunFilterPushdown(t *testing.T) {
	eng, env := testEngine(t, 2, 6)
	res, err := Run(eng, `
		T1 = SCAN(Images);
		B0 = [SELECT * FROM T1 WHERE T1.imgId < 2];
		STORE(B0, B0Images);
	`, env)
	if err != nil {
		t.Fatal(err)
	}
	rows := Rows(res.Stored["B0Images"])
	if len(rows) != 2*2 {
		t.Fatalf("got %d b0 rows, want 4", len(rows))
	}
	for _, r := range rows {
		if id := r["imgId"].V.(int); id >= 2 {
			t.Errorf("row with imgId=%d passed the b0 filter", id)
		}
	}
}

func TestRunProjection(t *testing.T) {
	eng, env := testEngine(t, 1, 3)
	res, err := Run(eng, `
		T1 = SCAN(Images);
		P = [SELECT T1.subjId, T1.imgId FROM T1 WHERE T1.imgId < 2];
		STORE(P, Projected);
	`, env)
	if err != nil {
		t.Fatal(err)
	}
	rows := Rows(res.Stored["Projected"])
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if _, ok := r["img"]; ok {
			t.Error("img column survived projection")
		}
		if len(r) != 2 {
			t.Errorf("row has %d columns, want 2: %v", len(r), r)
		}
	}
}

func TestRunGroupByUDA(t *testing.T) {
	const nSubj, nVols = 3, 5
	eng, env := testEngine(t, nSubj, nVols)
	env.DefineUDA("MeanVol", cost.Mean, func(group [][]Cell) Cell {
		var sum float64
		for _, args := range group {
			sum += args[0].V.(float64)
		}
		return Cell{V: sum / float64(len(group)), Size: 8}
	})
	res, err := Run(eng, `
		T1 = SCAN(Images);
		M = [SELECT T1.subjId, PYUDA(MeanVol, T1.img) AS meanImg FROM T1];
		STORE(M, Means);
	`, env)
	if err != nil {
		t.Fatal(err)
	}
	rows := Rows(res.Stored["Means"])
	if len(rows) != nSubj {
		t.Fatalf("got %d groups, want %d", len(rows), nSubj)
	}
	want := (0.0 + 1 + 2 + 3 + 4) / 5
	for _, r := range rows {
		if got := r["meanImg"].V.(float64); got != want {
			t.Errorf("subject %v mean = %v, want %v", r["subjId"].V, got, want)
		}
	}
}

func TestRunJoinMatchesMaskPerSubject(t *testing.T) {
	const nSubj, nVols = 4, 3
	eng, env := testEngine(t, nSubj, nVols)
	res, err := Run(eng, `
		T1 = SCAN(Images);
		T2 = SCAN(Mask);
		J = [SELECT T1.subjId, T1.imgId, T1.img, T2.mask FROM T1, T2 WHERE T1.subjId = T2.subjId];
		STORE(J, Joined);
	`, env)
	if err != nil {
		t.Fatal(err)
	}
	rows := Rows(res.Stored["Joined"])
	if len(rows) != nSubj*nVols {
		t.Fatalf("join produced %d rows, want %d", len(rows), nSubj*nVols)
	}
	for _, r := range rows {
		if r["mask"].V.(float64) != 0.5 {
			t.Errorf("bad mask value in joined row: %v", r)
		}
	}
}

func TestRunEmitFlatmap(t *testing.T) {
	eng, env := testEngine(t, 1, 2)
	env.DefineUDF("Split", cost.Regroup, func(args []Cell) []Cell {
		// Each volume splits into 3 voxel blocks.
		return []Cell{
			{V: "block0", Size: args[0].Size / 3},
			{V: "block1", Size: args[0].Size / 3},
			{V: "block2", Size: args[0].Size / 3},
		}
	})
	res, err := Run(eng, `
		T1 = SCAN(Images);
		Blocks = [FROM T1 EMIT PYUDF(Split, img) AS block, subjId, imgId];
		STORE(Blocks, VoxelBlocks);
	`, env)
	if err != nil {
		t.Fatal(err)
	}
	rows := Rows(res.Stored["VoxelBlocks"])
	if len(rows) != 2*3 {
		t.Fatalf("flatmap produced %d rows, want 6", len(rows))
	}
}

func TestRunSequencedQueries(t *testing.T) {
	// Two programs run as two sequential queries, the second consuming
	// the first's stored output — the paper's mask-then-denoise split.
	eng, env := testEngine(t, 2, 4)
	env.DefineUDA("MeanVol", cost.Mean, func(group [][]Cell) Cell {
		var sum float64
		for _, args := range group {
			sum += args[0].V.(float64)
		}
		return Cell{V: sum / float64(len(group)), Size: 1 << 10}
	})
	res1, err := Run(eng, `
		T1 = SCAN(Images);
		B0 = [SELECT * FROM T1 WHERE T1.imgId < 2];
		M = [SELECT B0.subjId, PYUDA(MeanVol, B0.img) AS mask FROM B0];
		STORE(M, Mask2);
	`, env)
	if err != nil {
		t.Fatal(err)
	}
	env.DefineTable("Mask2", Schema{Key: []string{"subjId"}, Cols: []string{"subjId", "mask"}}, res1.Stored["Mask2"])
	env.DefineUDF("Denoise", cost.Denoise, func(args []Cell) []Cell {
		return []Cell{{V: args[0].V.(float64) + args[1].V.(float64), Size: args[0].Size}}
	})
	res2, err := Run(eng, `
		T1 = SCAN(Images);
		T2 = SCAN(Mask2);
		J = [SELECT T1.subjId, T1.imgId, T1.img, T2.mask FROM T1, T2 WHERE T1.subjId = T2.subjId];
		D = [FROM J EMIT PYUDF(Denoise, img, mask) AS img, subjId, imgId];
		STORE(D, Denoised);
	`, env, res1.Done)
	if err != nil {
		t.Fatal(err)
	}
	rows := Rows(res2.Stored["Denoised"])
	if len(rows) != 2*4 {
		t.Fatalf("got %d denoised rows, want 8", len(rows))
	}
	// The b0 mean of volumes {0,1} is 0.5, so denoised = imgId + 0.5.
	for _, r := range rows {
		if got, want := r["img"].V.(float64), float64(r["imgId"].V.(int))+0.5; got != want {
			t.Errorf("subj %v vol %v: %v, want %v", r["subjId"].V, r["imgId"].V, got, want)
		}
	}
	// Virtual time advanced monotonically across the two queries.
	if res2.Done.End < res1.Done.End {
		t.Errorf("second query finished (%v) before the first (%v)", res2.Done.End, res1.Done.End)
	}
}

func TestRunErrors(t *testing.T) {
	eng, env := testEngine(t, 1, 2)
	cases := []struct {
		name, src string
		wantSub   string
	}{
		{"unknown table", `T = SCAN(Nope); STORE(T, X);`, "unknown base table"},
		{"unbound rel", `X = [SELECT * FROM Ghost];`, "unbound relation"},
		{"store unbound", `STORE(Ghost, X);`, "unbound"},
		{"unknown udf", `T = SCAN(Images); D = [FROM T EMIT PYUDF(Nope, img) AS x];`, "unknown UDF"},
		{"unknown uda", `T = SCAN(Images); D = [SELECT T.subjId, PYUDA(Nope, T.img) AS x FROM T];`, "unknown UDA"},
		{"unknown column", `T = SCAN(Images); D = [SELECT T.ghost FROM T];`, "no column"},
		{"unknown alias", `T = SCAN(Images); D = [SELECT Z.img FROM T];`, "unknown alias"},
		{"no join pred", `A = SCAN(Images); B = SCAN(Mask); J = [SELECT A.img FROM A, B];`, "equality join"},
		{"udf in select", `T = SCAN(Images); D = [SELECT PYUDF(F, T.img) AS x FROM T];`, "EMIT"},
		{"emit without call", `T = SCAN(Images); D = [FROM T EMIT subjId];`, "without a PYUDF"},
		{"three tables", `A = SCAN(Images); J = [SELECT A.img FROM A, B, C];`, "1 or 2"},
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

func TestJoinRequiresKeyPrefix(t *testing.T) {
	eng, env := testEngine(t, 1, 2)
	// Joining Images to Mask on a non-key-prefix column must be rejected,
	// not silently wrong.
	_, err := Run(eng, `
		A = SCAN(Images);
		B = SCAN(Mask);
		J = [SELECT A.subjId FROM A, B WHERE A.imgId = B.subjId];
	`, env)
	if err == nil || !strings.Contains(err.Error(), "first key column") {
		t.Fatalf("expected key-prefix error, got %v", err)
	}
}

// TestRemovedProductionsFailWithLine pins what the grammar no longer
// has: the paper's programs never used these, so each is a parse or
// compile error naming its line.
func TestRemovedProductionsFailWithLine(t *testing.T) {
	eng, env := testEngine(t, 1, 2)
	env.DefineUDF("F", cost.Denoise, func(args []Cell) []Cell { return args })
	for _, stmt := range []string{
		`M = [SELECT T.subjId, PYUDA(F, T.img) AS m FROM T GROUP BY T.subjId];`,
		`M = [SELECT * FROM Images AS T];`,
		`M = [SELECT * FROM T WHERE T.imgId < 1 AND T.imgId < 2];`,
		`M = [SELECT * FROM T WHERE T.imgId <= 1];`,
		`M = [SELECT * FROM T WHERE T.imgId > 1];`,
		`M = [SELECT * FROM T WHERE T.subjId = 's00'];`,
		`M = [SELECT * FROM T WHERE T.imgId = T.subjId];`,
		`M = [FROM T EMIT PYUDF(F, img) AS a, PYUDF(F, img) AS b];`,
		`M = [FROM T EMIT PYUDF(F, img)];`,
	} {
		src := "T = SCAN(Images);\n" + stmt
		_, err := Run(eng, src, env)
		if err == nil || !strings.Contains(err.Error(), "line 2:") {
			t.Errorf("Run(%q) = %v, want an error at line 2", src, err)
		}
	}
}

func keysOf[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// FuzzParse holds the parser to three properties on any input: it never
// panics; every error is the empty-program error or names a line of the
// input (one past the last for an unexpected end); and an accepted
// program prints to source that parses to the same program.
func FuzzParse(f *testing.F) {
	f.Add(fig7)
	f.Add("T1 = SCAN(Images);\nB0 = [SELECT * FROM T1 WHERE T1.imgId < 3];\nM = [SELECT B0.subjId, PYUDA(SegmentVols, B0.img) AS mask FROM B0];\nSTORE(M, Mask);")
	f.Add(`M = [SELECT T.subjId, PYUDA(MeanVol, T.img) AS mean FROM T];`)
	f.Add("")
	f.Add("X = [SELECT")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			checkParseError(t, "myrial", src, err)
			return
		}
		again, err := Parse(prog.String())
		if err != nil || again.String() != prog.String() {
			t.Fatalf("%q parses, but its printed form %q parses to %v (%v)", src, prog.String(), again, err)
		}
	})
}

// checkParseError fails unless err is the empty-program error of lang
// or carries "line N" with N a line of src or the one after it.
func checkParseError(t *testing.T, lang, src string, err error) {
	t.Helper()
	msg := err.Error()
	if msg == lang+": empty program" {
		return
	}
	var n int
	if _, serr := fmt.Sscanf(msg, lang+": line %d:", &n); serr != nil {
		t.Fatalf("%q: error %q names no line", src, msg)
	}
	if lines := strings.Count(src, "\n") + 1; n < 1 || n > lines+1 {
		t.Fatalf("%q: error %q names line %d of %d", src, msg, n, lines)
	}
}
