// Package model holds what a Falcon run learns — the blocking-rule
// sequence and the random-forest matcher, bound to a feature-space
// signature — and freezes it into the versioned binary MatcherArtifact, so
// an EM service can train once with the crowd and re-apply the learned
// model to refreshed tables with no further crowdsourcing.
package model

import (
	"context"
	"fmt"

	"falcon/internal/block"
	"falcon/internal/feature"
	"falcon/internal/filters"
	"falcon/internal/forest"
	"falcon/internal/mapreduce"
	"falcon/internal/rules"
	"falcon/internal/table"
)

// Model is the outcome of hands-off learning. It is serialized only as
// part of a MatcherArtifact, which embeds it.
type Model struct {
	// FeatureNames is the full feature space in vector order; it must
	// regenerate identically from schema-compatible tables.
	FeatureNames []string
	// BlockingIdx indexes the blocking-feature subspace.
	BlockingIdx []int
	// RuleSeq is the selected blocking-rule sequence over blocking-vector
	// positions; empty means the matcher-only plan.
	RuleSeq []rules.Rule
	// ClauseSel holds each rule's sample selectivity (for apply-greedy).
	ClauseSel []float64
	// Matcher is the matching-stage forest over the full feature space.
	// Forests are immutable after Train, so models share the reference.
	Matcher *forest.Forest
}

// New assembles a model from learned artifacts.
func New(set *feature.Set, seq []rules.Rule, clauseSel []float64, matcher *forest.Forest) *Model {
	m := &Model{
		BlockingIdx: append([]int(nil), set.BlockingIdx...),
		RuleSeq:     seq,
		ClauseSel:   clauseSel,
		Matcher:     matcher,
	}
	for _, f := range set.Features {
		m.FeatureNames = append(m.FeatureNames, f.Name)
	}
	return m
}

// validate checks the model's internal references, so a corrupt artifact
// fails to load instead of panicking when applied: every blocking index and
// split names a feature, every predicate names a blocking feature with a
// known operator, and each rule has a selectivity.
func (m *Model) validate() error {
	if m.Matcher == nil {
		return fmt.Errorf("model: missing matcher")
	}
	nf := len(m.FeatureNames)
	for i, idx := range m.BlockingIdx {
		if idx < 0 || idx >= nf {
			return fmt.Errorf("model: blocking feature %d is %d, outside %d features", i, idx, nf)
		}
	}
	for i, r := range m.RuleSeq {
		for _, p := range r.Preds {
			if p.Feature < 0 || p.Feature >= len(m.BlockingIdx) {
				return fmt.Errorf("model: rule %d reads blocking feature %d, outside %d", i, p.Feature, len(m.BlockingIdx))
			}
			if !p.Op.Valid() {
				return fmt.Errorf("model: rule %d has unknown op %d", i, int(p.Op))
			}
		}
	}
	if len(m.ClauseSel) != len(m.RuleSeq) {
		return fmt.Errorf("model: %d clause selectivities for %d rules", len(m.ClauseSel), len(m.RuleSeq))
	}
	var check func(n *forest.Node) error
	check = func(n *forest.Node) error {
		if n.IsLeaf() {
			return nil
		}
		if n.Feature < 0 || n.Feature >= nf {
			return fmt.Errorf("model: matcher splits on feature %d, outside %d features", n.Feature, nf)
		}
		if err := check(n.Left); err != nil {
			return err
		}
		return check(n.Right)
	}
	for _, t := range m.Matcher.Trees {
		if err := check(t.Root); err != nil {
			return err
		}
	}
	return nil
}

// Bind regenerates the feature space for a new table pair and verifies it
// matches the model's signature, returning the bound set.
func (m *Model) Bind(a, b *table.Table) (*feature.Set, error) {
	set := feature.Generate(a, b)
	if len(set.Features) != len(m.FeatureNames) {
		return nil, fmt.Errorf("model: feature space mismatch: tables yield %d features, model has %d",
			len(set.Features), len(m.FeatureNames))
	}
	for i, f := range set.Features {
		if f.Name != m.FeatureNames[i] {
			return nil, fmt.Errorf("model: feature %d is %q, model expects %q", i, f.Name, m.FeatureNames[i])
		}
	}
	if len(set.BlockingIdx) != len(m.BlockingIdx) {
		return nil, fmt.Errorf("model: blocking subspace mismatch")
	}
	return set, nil
}

// Apply runs the stored blocking rules and matcher over a new table pair —
// no crowd involved. It returns the predicted matches and the surviving
// candidate count.
func (m *Model) Apply(cluster *mapreduce.Cluster, a, b *table.Table) ([]table.Pair, int, error) {
	return m.ApplyContext(context.Background(), cluster, a, b)
}

// ApplyContext is Apply honoring ctx cancellation inside the blocking jobs
// (and once per A row of the matcher-only plan). Each candidate is scored
// with the on-demand forest walk, which computes only the features the
// trees' paths read.
func (m *Model) ApplyContext(ctx context.Context, cluster *mapreduce.Cluster, a, b *table.Table) ([]table.Pair, int, error) {
	if cluster == nil {
		cluster = mapreduce.Default()
	}
	set, err := m.Bind(a, b)
	if err != nil {
		return nil, 0, err
	}
	vz := feature.NewVectorizer(set, a, b)

	e := vz.Eval(nil)
	defer e.Release()
	var matches []table.Pair
	score := func(p table.Pair) {
		if m.Matcher.Majority(m.Matcher.VotesOn(e.Reset(p))) {
			matches = append(matches, p)
		}
	}
	if len(m.RuleSeq) == 0 {
		// Matcher-only plan: stream A×B through the scorer rather than
		// materialize |A|·|B| candidate pairs.
		for i := 0; i < a.Len(); i++ {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
			for j := 0; j < b.Len(); j++ {
				score(table.Pair{A: i, B: j})
			}
		}
		return matches, a.Len() * b.Len(), nil
	}

	feats := make([]*feature.Feature, len(set.BlockingIdx))
	for i, idx := range set.BlockingIdx {
		feats[i] = &set.Features[idx]
	}
	an := filters.Analyze(rules.ToCNF(m.RuleSeq), feats)
	ix := filters.NewIndexes(cluster, a)
	if _, err := ix.EnsureAll(ctx, an.NeededIndexes()); err != nil {
		return nil, 0, err
	}
	in := &block.Input{
		A: a, B: b,
		Analysis:    an,
		Indexes:     ix,
		Vectorizer:  vz,
		ClauseSel:   m.ClauseSel,
		PassIDsOnly: true,
	}
	res, err := block.Run(ctx, cluster, in, block.Choose(cluster, in, seqSel(m.ClauseSel)))
	if err != nil {
		return nil, 0, err
	}
	for _, p := range res.Pairs {
		score(p)
	}
	return matches, len(res.Pairs), nil
}

// seqSel approximates the sequence selectivity as the product of the
// per-rule selectivities (the independence estimate of §6).
func seqSel(sel []float64) float64 {
	s := 1.0
	for _, v := range sel {
		s *= v
	}
	return s
}
