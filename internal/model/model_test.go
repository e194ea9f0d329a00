package model

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"falcon/internal/feature"
	"falcon/internal/forest"
	"falcon/internal/mapreduce"
	"falcon/internal/rules"
	"falcon/internal/table"
)

// trainWorld builds tables, a feature set, and a hand-trained matcher with
// a simple rule sequence, so models can be built without the full pipeline.
func trainWorld(t *testing.T, n int, seed int64) (*table.Table, *table.Table, *feature.Set, *Model) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	words := []string{"war", "peace", "art", "code", "go", "data", "cloud", "entity"}
	mk := func(name string) *table.Table {
		tb := table.New(name, table.NewSchema("title", "price"))
		for i := 0; i < n; i++ {
			var ws []string
			for j := 0; j < 3+rng.Intn(3); j++ {
				ws = append(ws, words[rng.Intn(len(words))])
			}
			tb.Append(strings.Join(ws, " "), "10")
		}
		tb.InferTypes()
		return tb
	}
	a, b := mk("A"), mk("B")
	// Plant exact-title matches so the matcher has positives to find.
	for i := 0; i < n/2; i++ {
		b.Tuples[i].Values[0] = a.Tuples[i].Values[0]
	}
	set := feature.Generate(a, b)
	vz := feature.NewVectorizer(set, a, b)

	// Train a matcher on "same title" ground truth: the planted positives
	// plus random (mostly negative) pairs.
	var exs []forest.Example
	addExample := func(p table.Pair) {
		vec := vz.Vector(p)
		exs = append(exs, forest.Example{Values: vec.Values, Label: a.Value(p.A, 0) == b.Value(p.B, 0)})
	}
	for i := 0; i < n/2; i++ {
		addExample(table.Pair{A: i, B: i})
	}
	for i := 0; i < 300; i++ {
		addExample(table.Pair{A: rng.Intn(n), B: rng.Intn(n)})
	}
	matcher := forest.Train(exs, forest.Config{Seed: 5})

	// One blocking rule: drop if title jaccard ≤ 0.5.
	jw := -1
	for i, idx := range set.BlockingIdx {
		if set.Features[idx].Name == "jaccard_word(title)" {
			jw = i
		}
	}
	if jw < 0 {
		t.Fatal("no jaccard_word(title) feature")
	}
	seq := []rules.Rule{{ID: 0, Preds: []rules.Predicate{{Feature: jw, Op: rules.LE, Value: 0.5}}}}
	m := New(set, seq, []float64{0.2}, matcher)
	return a, b, set, m
}

// TestSaveLoadRoundTrip round-trips a model-only artifact: the loaded model
// keeps its structure and applies exactly like the original.
func TestSaveLoadRoundTrip(t *testing.T) {
	a, b, _, m := trainWorld(t, 60, 1)
	var buf bytes.Buffer
	if err := NewMatcherArtifact(m, nil).Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.FeatureNames) != len(m.FeatureNames) || len(m2.RuleSeq) != 1 {
		t.Fatalf("round trip lost structure: %d features, %d rules", len(m2.FeatureNames), len(m2.RuleSeq))
	}
	// Both models must predict identically.
	got1, n1, err := m.Apply(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	got2, n2, err := m2.Apply(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got1) != len(got2) || n1 != n2 {
		t.Fatalf("loaded model differs: %d/%d vs %d/%d", len(got1), n1, len(got2), n2)
	}
	for i := range got1 {
		if got1[i] != got2[i] {
			t.Fatal("loaded model predicts differently")
		}
	}
}

func TestApplyMatchesTruth(t *testing.T) {
	a, b, _, m := trainWorld(t, 80, 2)
	matches, cands, err := m.Apply(mapreduce.Default(), a, b)
	if err != nil {
		t.Fatal(err)
	}
	if cands == 0 {
		t.Fatal("blocking dropped everything")
	}
	if cands >= a.Len()*b.Len() {
		t.Fatal("blocking dropped nothing")
	}
	// Spot-check: predicted matches mostly share titles.
	good := 0
	for _, p := range matches {
		if a.Value(p.A, 0) == b.Value(p.B, 0) {
			good++
		}
	}
	if len(matches) == 0 || good < len(matches)*6/10 {
		t.Fatalf("model predictions poor: %d/%d share titles", good, len(matches))
	}
}

func TestApplyMatcherOnly(t *testing.T) {
	a, b, set, m := trainWorld(t, 25, 3)
	m2 := New(set, nil, nil, m.Matcher)
	matches, cands, err := m2.Apply(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if cands != a.Len()*b.Len() {
		t.Fatalf("matcher-only should scan the full product: %d", cands)
	}
	if len(matches) == 0 {
		t.Fatal("no matches")
	}
}

// TestApplyMatcherOnlyStreamsProduct checks the streamed matcher-only plan
// against eager scoring of every A×B pair, and that it honors a cancelled
// context.
func TestApplyMatcherOnlyStreamsProduct(t *testing.T) {
	a, b, set, m := trainWorld(t, 25, 3)
	m2 := New(set, nil, nil, m.Matcher)
	matches, _, err := m2.Apply(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	vz := feature.NewVectorizer(set, a, b)
	var want []table.Pair
	for i := 0; i < a.Len(); i++ {
		for j := 0; j < b.Len(); j++ {
			p := table.Pair{A: i, B: j}
			if m.Matcher.Predict(vz.Vector(p).Values) {
				want = append(want, p)
			}
		}
	}
	if !slices.Equal(matches, want) {
		t.Fatalf("streamed matches %v, eager %v", matches, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := m2.ApplyContext(ctx, nil, a, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled apply returned %v, want context.Canceled", err)
	}
}

func TestBindRejectsSchemaMismatch(t *testing.T) {
	a, _, _, m := trainWorld(t, 20, 4)
	other := table.New("other", table.NewSchema("totally", "different", "schema"))
	other.Append("x", "y", "z")
	other.InferTypes()
	if _, err := m.Bind(a, other); err == nil {
		t.Fatal("schema mismatch should fail Bind")
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	if _, err := LoadArtifact(strings.NewReader("not an artifact")); err == nil {
		t.Fatal("garbage should fail")
	}
	_, _, _, m := trainWorld(t, 20, 4)
	m.Matcher = nil
	var buf bytes.Buffer
	if err := NewMatcherArtifact(m, nil).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArtifact(&buf); err == nil || !strings.Contains(err.Error(), "missing matcher") {
		t.Fatalf("missing matcher: got %v", err)
	}
}

func TestSeqSel(t *testing.T) {
	if got := seqSel([]float64{0.5, 0.5}); got != 0.25 {
		t.Fatalf("seqSel = %v", got)
	}
	if got := seqSel(nil); got != 1 {
		t.Fatalf("empty seqSel = %v", got)
	}
}
