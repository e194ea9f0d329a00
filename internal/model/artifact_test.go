package model

import (
	"testing"

	"falcon/internal/forest"
	"falcon/internal/rules"
	"falcon/internal/tokenize"
)

// TestNewMatcherArtifact proves the serving artifact is insulated from its
// inputs: mutating the model's slices or the dictionary map after
// construction must not be visible through the artifact (the artifact is
// frozen — see //falcon:frozen on the constructor).
func TestNewMatcherArtifact(t *testing.T) {
	m := &Model{
		FeatureNames: []string{"jaccard_word(title)", "abs_diff(price)"},
		BlockingIdx:  []int{0},
		RuleSeq:      make([]rules.Rule, 1),
		ClauseSel:    []float64{0.25},
		Matcher:      &forest.Forest{},
	}
	d := tokenize.NewDict()
	d.Intern("cloud")
	dicts := map[string]*tokenize.Dict{"title": d}

	art := NewMatcherArtifact(m, &ServingData{Dicts: dicts})

	if art.Version != ArtifactVersion {
		t.Fatalf("Version = %d, want %d", art.Version, ArtifactVersion)
	}
	if art.Matcher != m.Matcher {
		t.Fatalf("Matcher should be shared, not copied")
	}
	if art.Dicts["title"] != d {
		t.Fatalf("dictionary reference should be shared, not copied")
	}

	m.FeatureNames[0] = "mutated"
	m.BlockingIdx[0] = 99
	m.ClauseSel[0] = 0.99
	dicts["price"] = tokenize.NewDict()

	if art.FeatureNames[0] != "jaccard_word(title)" {
		t.Fatalf("FeatureNames shares the input spine: %q", art.FeatureNames[0])
	}
	if art.BlockingIdx[0] != 0 {
		t.Fatalf("BlockingIdx shares the input spine: %d", art.BlockingIdx[0])
	}
	if art.ClauseSel[0] != 0.25 {
		t.Fatalf("ClauseSel shares the input spine: %g", art.ClauseSel[0])
	}
	if len(art.Dicts) != 1 {
		t.Fatalf("Dicts shares the input map: %d entries", len(art.Dicts))
	}
}
