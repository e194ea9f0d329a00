package falcon

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"falcon/internal/core"
	"falcon/internal/datagen"
	"falcon/internal/forest"
	"falcon/internal/model"
	"falcon/internal/table"
)

// dsLabeler wraps a generated dataset's ground truth as a Labeler keyed by
// a hidden row-identity column lookup (here we just compare against truth
// by re-finding the rows; datasets are small in tests so a value-keyed map
// works).
func dsLabeler(d *datagen.Dataset) Labeler {
	type key struct{ a, b string }
	truth := map[key]bool{}
	join := func(vs []string) string { return strings.Join(vs, "\x1f") }
	for p := range d.Truth {
		truth[key{join(d.A.Tuples[p.A].Values), join(d.B.Tuples[p.B].Values)}] = true
	}
	return LabelerFunc(func(a, b []string) bool {
		return truth[key{join(a), join(b)}]
	})
}

func scoreF1(d *datagen.Dataset, matches []Pair) float64 {
	pred := make([]table.Pair, len(matches))
	for i, m := range matches {
		pred[i] = table.Pair{A: m.ARow, B: m.BRow}
	}
	tp := 0
	seen := map[table.Pair]bool{}
	for _, p := range pred {
		if seen[p] {
			continue
		}
		seen[p] = true
		if d.Truth[p] {
			tp++
		}
	}
	if len(seen) == 0 || len(d.Truth) == 0 {
		return 0
	}
	prec := float64(tp) / float64(len(seen))
	rec := float64(tp) / float64(len(d.Truth))
	if prec+rec == 0 {
		return 0
	}
	return 2 * prec * rec / (prec + rec)
}

func TestTableBasics(t *testing.T) {
	tb := NewTable("books", "title", "price")
	tb.Append("dune", "9.99")
	tb.Append("hyperion", "12.50")
	if tb.Len() != 2 || tb.Name() != "books" {
		t.Fatalf("table = %s/%d", tb.Name(), tb.Len())
	}
	if cols := tb.Columns(); len(cols) != 2 || cols[1] != "price" {
		t.Fatalf("columns = %v", cols)
	}
	row := tb.Row(0)
	row[0] = "mutated"
	if tb.Row(0)[0] != "dune" {
		t.Fatal("Row should return a copy")
	}
}

func TestReadCSV(t *testing.T) {
	tb, err := ReadCSV(strings.NewReader("a,b\n1,x\n2,y\n"), "t")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if _, err := ReadCSV(strings.NewReader(""), "t"); err == nil {
		t.Fatal("empty CSV should error")
	}
}

func TestMatchValidation(t *testing.T) {
	tb := NewTable("x", "a")
	if _, err := Match(nil, tb, LabelerFunc(func(a, b []string) bool { return false })); err == nil {
		t.Fatal("nil table should error")
	}
	if _, err := Match(tb, tb, nil); err != ErrNilLabeler {
		t.Fatal("nil labeler should return ErrNilLabeler")
	}
}

func TestMatchEndToEnd(t *testing.T) {
	d := datagen.Songs(600, 42)
	report, err := Match(WrapTable(d.A), WrapTable(d.B), dsLabeler(d),
		WithSeed(1),
		WithSampleSize(3000),
		WithMaxIterations(10),
		WithBlocking(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	if !report.UsedBlocking {
		t.Fatal("blocking not used")
	}
	if f1 := scoreF1(d, report.Matches); f1 < 0.7 {
		t.Fatalf("F1 = %.3f, want ≥0.7", f1)
	}
	if report.CrowdCost <= 0 || report.Questions <= 0 {
		t.Fatalf("cost accounting: $%.2f / %d questions", report.CrowdCost, report.Questions)
	}
	if report.TotalTime <= 0 || report.CrowdTime <= 0 {
		t.Fatal("time accounting missing")
	}
	if report.MaskedMachineTime+report.UnmaskedMachineTime != report.MachineTime {
		t.Fatal("masking accounting inconsistent")
	}
	if len(report.PerOperator) == 0 {
		t.Fatal("no per-operator breakdown")
	}
	if report.RulesRetained <= 0 || report.RulesLearned < report.RulesRetained {
		t.Fatalf("rules: %d/%d", report.RulesRetained, report.RulesLearned)
	}
	if report.Strategy == "" {
		t.Fatal("no strategy reported")
	}
}

func TestMatchInHouseCrowd(t *testing.T) {
	d := datagen.Drugs(300, 7)
	report, err := Match(WrapTable(d.A), WrapTable(d.B), dsLabeler(d),
		WithSeed(2),
		WithSampleSize(2000),
		WithMaxIterations(8),
		WithBlocking(true),
		WithInHouseCrowd(20*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Crowd of one: one answer per question → cost = questions × 2¢.
	if report.CrowdCost != float64(report.Questions)*0.02 {
		t.Fatalf("in-house cost %.2f != questions %d × $0.02", report.CrowdCost, report.Questions)
	}
	if f1 := scoreF1(d, report.Matches); f1 < 0.6 {
		t.Fatalf("drug matching F1 = %.3f", f1)
	}
}

func TestMatchBudgetOption(t *testing.T) {
	d := datagen.Songs(400, 9)
	_, err := Match(WrapTable(d.A), WrapTable(d.B), dsLabeler(d),
		WithSeed(3), WithSampleSize(2000), WithMaxIterations(10),
		WithBlocking(true), WithBudget(0.05))
	if err == nil {
		t.Fatal("five-cent budget should fail")
	}
}

func TestMatchWithoutMaskingStillCorrect(t *testing.T) {
	d := datagen.Songs(400, 11)
	on, err := Match(WrapTable(d.A), WrapTable(d.B), dsLabeler(d),
		WithSeed(4), WithSampleSize(2000), WithMaxIterations(8), WithBlocking(true))
	if err != nil {
		t.Fatal(err)
	}
	off, err := Match(WrapTable(d.A), WrapTable(d.B), dsLabeler(d),
		WithSeed(4), WithSampleSize(2000), WithMaxIterations(8), WithBlocking(true), WithoutMasking())
	if err != nil {
		t.Fatal(err)
	}
	if len(on.Matches) != len(off.Matches) {
		t.Fatalf("masking changed results: %d vs %d matches", len(on.Matches), len(off.Matches))
	}
	if off.MaskedMachineTime != 0 {
		t.Fatalf("unmasked run reports masked time %v", off.MaskedMachineTime)
	}
}

func TestWithStrategyOption(t *testing.T) {
	d := datagen.Songs(300, 13)
	report, err := Match(WrapTable(d.A), WrapTable(d.B), dsLabeler(d),
		WithSeed(5), WithSampleSize(1500), WithMaxIterations(6),
		WithBlocking(true), WithStrategy("apply-greedy"))
	if err != nil {
		t.Fatal(err)
	}
	if report.Strategy != "apply-greedy" {
		t.Fatalf("strategy = %s", report.Strategy)
	}
}

func TestWithStrategyUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WithStrategy("bogus")(&config{})
}

func TestWithClusterOption(t *testing.T) {
	c := &config{opt: core.DefaultOptions()}
	WithCluster(5, 4, 1<<30)(c)
	if c.opt.Cluster.Nodes != 5 || c.opt.Cluster.SlotsPerNode != 4 {
		t.Fatalf("cluster = %+v", c.opt.Cluster)
	}
}

func TestMatchWithAccuracyEstimate(t *testing.T) {
	d := datagen.Songs(400, 17)
	report, err := Match(WrapTable(d.A), WrapTable(d.B), dsLabeler(d),
		WithSeed(6), WithSampleSize(2000), WithMaxIterations(8),
		WithBlocking(true), WithAccuracyEstimate())
	if err != nil {
		t.Fatal(err)
	}
	if report.Estimate == nil {
		t.Fatal("no estimate in report")
	}
	if report.Estimate.F1 < 0 || report.Estimate.F1 > 1 {
		t.Fatalf("estimated F1 = %v", report.Estimate.F1)
	}
	if report.Estimate.Labeled == 0 {
		t.Fatal("estimator asked nothing")
	}
}

func TestMatchWithIterativeWorkflow(t *testing.T) {
	d := datagen.Songs(400, 19)
	report, err := Match(WrapTable(d.A), WrapTable(d.B), dsLabeler(d),
		WithSeed(8), WithSampleSize(2000), WithMaxIterations(4),
		WithBlocking(true), WithIterativeWorkflow(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.RoundF1) < 1 || len(report.RoundF1) > 3 {
		t.Fatalf("RoundF1 = %v", report.RoundF1)
	}
	if f1 := scoreF1(d, report.Matches); f1 < 0.6 {
		t.Fatalf("iterated F1 = %.3f", f1)
	}
}

func TestModelExportAndApply(t *testing.T) {
	d := datagen.Songs(400, 23)
	report, err := Match(WrapTable(d.A), WrapTable(d.B), dsLabeler(d),
		WithSeed(10), WithSampleSize(2000), WithMaxIterations(8), WithBlocking(true))
	if err != nil {
		t.Fatal(err)
	}
	blob := report.Model()
	if len(blob) == 0 {
		t.Fatal("no model exported")
	}
	// Re-apply to the same tables: no crowd, similar matches.
	again, err := ApplyModel(blob, WrapTable(d.A), WrapTable(d.B))
	if err != nil {
		t.Fatal(err)
	}
	if len(again) == 0 {
		t.Fatal("model found nothing on re-apply")
	}
	if f1 := scoreF1(d, again); f1 < 0.6 {
		t.Fatalf("re-applied model F1 = %.3f", f1)
	}
	// The blob is a model-only artifact: it loads through the one artifact
	// decoder and carries no serving payload.
	art, err := model.LoadArtifact(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("model blob is not an artifact: %v", err)
	}
	if art.B != nil {
		t.Fatal("model-only artifact carries a B table")
	}
	// The complete serving artifact applies exactly like the model blob.
	var full bytes.Buffer
	if err := report.SaveArtifact(&full); err != nil {
		t.Fatal(err)
	}
	fromFull, err := ApplyModel(full.Bytes(), WrapTable(d.A), WrapTable(d.B))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fromFull, again) {
		t.Fatalf("full artifact applied to %d pairs, model blob to %d", len(fromFull), len(again))
	}
	// Re-apply to a *fresh* same-shape dataset: the learned model
	// transfers without any further crowdsourcing.
	d2 := datagen.Songs(400, 77)
	fresh, err := ApplyModel(blob, WrapTable(d2.A), WrapTable(d2.B))
	if err != nil {
		t.Fatal(err)
	}
	if f1 := scoreF1(d2, fresh); f1 < 0.5 {
		t.Fatalf("transferred model F1 = %.3f", f1)
	}
	// Garbage rejects.
	if _, err := ApplyModel([]byte("junk"), WrapTable(d.A), WrapTable(d.B)); err == nil {
		t.Fatal("junk model should fail")
	}
}

// TestApplyModelRejectsBadModel corrupts one learned-model field at a time
// and writes each result with Save, so every bad artifact carries a valid
// checksum. Loading and applying it must both return an error, never
// reach a panic inside the matcher or the blocking rules.
func TestApplyModelRejectsBadModel(t *testing.T) {
	d := datagen.Songs(150, 5)
	report, err := Match(WrapTable(d.A), WrapTable(d.B), dsLabeler(d),
		WithSeed(3), WithSampleSize(1000), WithMaxIterations(4), WithBlocking(true))
	if err != nil {
		t.Fatal(err)
	}
	blob := report.Model()
	if len(report.artifact.RuleSeq) == 0 {
		t.Fatal("run retained no blocking rule; the predicate cases need one")
	}
	firstSplit := func(m *model.Model) *forest.Node {
		for _, tr := range m.Matcher.Trees {
			if !tr.Root.IsLeaf() {
				return tr.Root
			}
		}
		t.Fatal("matcher has no split")
		return nil
	}
	cases := []struct {
		name    string
		corrupt func(m *model.Model)
	}{
		{"split feature past the feature space", func(m *model.Model) { firstSplit(m).Feature = 1 << 20 }},
		{"negative split feature", func(m *model.Model) { firstSplit(m).Feature = -5 }},
		{"blocking index past the feature space", func(m *model.Model) { m.BlockingIdx[0] = 1 << 20 }},
		{"negative blocking index", func(m *model.Model) { m.BlockingIdx[0] = -1 }},
		{"predicate feature past the blocking space", func(m *model.Model) { m.RuleSeq[0].Preds[0].Feature = 1 << 20 }},
		{"unknown predicate op", func(m *model.Model) { m.RuleSeq[0].Preds[0].Op = 99 }},
		{"selectivity per rule", func(m *model.Model) { m.ClauseSel = append(m.ClauseSel, 0.5) }},
		{"missing matcher", func(m *model.Model) { m.Matcher = nil }},
		{"tree deeper than the limit", func(m *model.Model) {
			n := &forest.Node{Feature: -1}
			for i := 0; i <= forest.MaxDepthLimit; i++ {
				n = &forest.Node{Feature: 0, Left: n, Right: &forest.Node{Feature: -1}}
			}
			m.Matcher.Trees[0].Root = n
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// A fresh decode per case, so corruptions never accumulate.
			art, err := model.LoadArtifact(bytes.NewReader(blob))
			if err != nil {
				t.Fatal(err)
			}
			c.corrupt(art.TrainedModel())
			var bad bytes.Buffer
			if err := art.Save(&bad); err != nil {
				t.Fatal(err)
			}
			if _, err := model.LoadArtifact(bytes.NewReader(bad.Bytes())); err == nil {
				t.Error("LoadArtifact accepted the bad model")
			}
			if _, err := ApplyModel(bad.Bytes(), WrapTable(d.A), WrapTable(d.B)); err == nil {
				t.Error("ApplyModel accepted the bad model")
			}
		})
	}
}

func TestDedupSingleTable(t *testing.T) {
	// A songs table with planted duplicate clusters: rows 2i and 2i+1 are
	// the same song for the first half of the table.
	tb := NewTable("songs", "title", "artist", "year")
	truthPairs := map[Pair]bool{}
	base := []struct{ title, artist, year string }{
		{"whispering bells", "the del vikings", "1957"},
		{"blue moon river", "the ramblers", "1961"},
		{"midnight golden road", "los echoes", "1973"},
		{"summer rain dance", "dj strangers", "1988"},
		{"broken city light", "mc foxes", "1994"},
	}
	row := 0
	for _, s := range base {
		tb.Append(s.title, s.artist, s.year)
		tb.Append(s.title, s.artist+"s", s.year) // dirty duplicate
		truthPairs[Pair{ARow: row, BRow: row + 1}] = true
		row += 2
	}
	distinct := []string{"alpha night", "beta fire", "gamma dream", "delta heart", "epsilon ghost",
		"zeta road", "eta home", "theta rain", "iota river", "kappa wild"}
	for i, title := range distinct {
		tb.Append(title+" song", "artist "+title, fmt.Sprint(1950+i))
	}

	norm := func(vs []string) string { return strings.ToLower(vs[0]) + "|" + vs[2] }
	labeler := LabelerFunc(func(a, b []string) bool { return norm(a) == norm(b) })

	report, err := Dedup(tb, labeler, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	found := map[Pair]bool{}
	for _, m := range report.Matches {
		if m.ARow >= m.BRow {
			t.Fatalf("non-canonical or self pair %v", m)
		}
		if found[m] {
			t.Fatalf("duplicate pair %v", m)
		}
		found[m] = true
	}
	hits := 0
	for p := range truthPairs {
		if found[p] {
			hits++
		}
	}
	if hits < 4 {
		t.Fatalf("dedup found %d/5 planted duplicate pairs (matches: %v)", hits, report.Matches)
	}
}
