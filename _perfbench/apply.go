package main

import (
	"context"
	"fmt"
	"time"

	"falcon/internal/block"
	"falcon/internal/datagen"
	"falcon/internal/feature"
	"falcon/internal/filters"
	"falcon/internal/mapreduce"
	"falcon/internal/model"
	"falcon/internal/rules"
	"falcon/internal/table"
)

// The apply-citations fixture: a matcher trained on Citations at scale 0.1
// (1,800 × 2,500, data seed 12, training seed 5), applied to fresh
// Citations at scale 1.0 generated from the workload seed.
const (
	citationsTrainA, citationsTrainB = 1_800, 2_500
	citationsTrainDataSeed           = 12
	citationsA, citationsB           = 18_000, 25_000
)

// applyResult is one apply's output.
type applyResult struct {
	matches    []table.Pair
	candidates int
}

func applyCitations(r *run) error {
	var (
		art     *model.MatcherArtifact
		fixture *trainOutcome
		d       *datagen.Dataset
	)
	err := r.setup(func(int) error {
		return r.tr.do("setup", 0, func(id int) error {
			var train *datagen.Dataset
			_ = r.tr.do("datagen.Citations(train)", id, func(int) error {
				train = datagen.Citations(citationsTrainA, citationsTrainB, citationsTrainDataSeed)
				return nil
			})
			var err error
			if fixture, err = r.train(train, rowKeyLabeler(train), id); err != nil {
				return err
			}
			if art, err = r.loadArtifact(fixture.artifact, id); err != nil {
				return err
			}
			return r.tr.do("datagen.Citations(apply)", id, func(int) error {
				d = datagen.Citations(citationsA, citationsB, 1000+r.seed)
				return nil
			})
		})
	})
	if err != nil {
		return err
	}
	r.shape["train_table_a"], r.shape["train_table_b"] = citationsTrainA, citationsTrainB
	r.shape["table_a"], r.shape["table_b"] = d.A.Len(), d.B.Len()
	r.shape["questions"] = fixture.rep.Questions
	r.shape["sim_total_h"] = fixture.rep.TotalTime.Hours()
	r.shape["prefix_indexes"] = len(art.Prefix)
	r.shape["rules"] = len(art.RuleSeq)
	r.e2e("crowd_usd", fixture.rep.CrowdCost, "usd")
	r.e2e("artifact_mib", float64(len(fixture.artifact))/(1<<20), "MiB")

	var ref *applyResult
	check := func(got *applyResult, how string) {
		if ref == nil {
			ref = got
			return
		}
		r.gate(got.candidates == ref.candidates, "%s candidates %d != %d", how, got.candidates, ref.candidates)
		ok, diff := samePairs(got.matches, ref.matches)
		r.gate(ok, "%s matches differ from ApplyContext: %s", how, diff)
	}
	var got *applyResult
	untraced, err := r.untracedPhase(r.phaseBudget(), 3, phaseOp{run: func(int, int) error {
		r.attempted++
		m, n, err := art.ApplyContext(context.Background(), nil, d.A, d.B)
		if err != nil {
			r.failed++
			return fmt.Errorf("apply: %w", err)
		}
		got = &applyResult{m, n}
		return nil
	}, check: func(int, int) error {
		check(got, "repeated ApplyContext")
		return nil
	}})
	if err != nil {
		return err
	}
	score := f1(ref.matches, d.Truth)
	r.gate(score >= minF1, "apply F1 %.4f below %.2f", score, minF1)
	r.e2e("f1", score, "ratio")
	r.shape["candidates"] = ref.candidates
	r.shape["matches"] = len(ref.matches)
	if !r.traced {
		return nil
	}

	var st stagedStats
	traced, err := r.tracedPhase(median(walls(untraced)), 1, phaseOp{run: func(_ int, parent int) error {
		r.attempted++
		var err error
		if got, err = r.stagedApply(art, d.A, d.B, parent, &st); err != nil {
			r.failed++
		}
		return err
	}, check: func(int, int) error {
		check(got, "staged apply")
		return nil
	}})
	if err != nil {
		return err
	}
	r.gate(r.layers["trace.coverage"].Value >= 0.95, "staged-apply spans cover %.3f of the apply", r.layers["trace.coverage"].Value)
	n := float64(len(traced))
	self := selfTimes(r.tr.snapshot())
	r.layer("index.build_s", self["Indexes.EnsureAll"]/n, "s")
	r.layer("block.run_s", self["block.Run"]/n, "s")
	r.layer("block.enumerated", float64(st.enumerated)/n, "count")
	r.layer("block.yield", float64(ref.candidates)/(float64(st.enumerated)/n), "ratio")
	r.layer("feature.vectorize_s", st.vectorize.Seconds()/n, "s")
	r.layer("forest.predict_s", st.predict.Seconds()/n, "s")
	r.layer("core.candidates", float64(ref.candidates), "count")
	r.layer("model.save_s", self["Report.SaveArtifact"]/float64(r.setupReps), "s")
	r.layer("model.load_s", self["model.LoadArtifact"]/float64(r.setupReps), "s")
	r.layer("model.artifact_bytes", float64(len(fixture.artifact)), "bytes")
	return nil
}

// stagedStats accumulates what the staged apply measures inside its
// serial matcher loop, where one span per call would cost more than the
// call.
type stagedStats struct {
	enumerated         int64
	vectorize, predict time.Duration
}

// stagedApply composes MatcherArtifact.ApplyContext from the exported calls
// Model.ApplyContext makes, in its order, one span per stage, so the traced
// run can split the apply by layer. Like ApplyContext it never warms the
// vectorizer: block.Run builds the token columns it reads lazily, so its
// span includes that tokenization. Its output must equal ApplyContext's.
func (r *run) stagedApply(art *model.MatcherArtifact, a, b *table.Table, parent int, st *stagedStats) (*applyResult, error) {
	ctx := context.Background()
	cluster := mapreduce.Default()
	m := art.TrainedModel()
	if len(m.RuleSeq) == 0 {
		return nil, fmt.Errorf("artifact has no blocking rules; the staged apply covers the blocking plan only")
	}
	var set *feature.Set
	if err := r.tr.do("Model.Bind", parent, func(int) error {
		var err error
		set, err = m.Bind(a, b)
		return err
	}); err != nil {
		return nil, fmt.Errorf("bind: %w", err)
	}
	var vz *feature.Vectorizer
	_ = r.tr.do("feature.NewVectorizer", parent, func(int) error {
		vz = feature.NewVectorizer(set, a, b)
		return nil
	})

	var candidates []table.Pair
	var an *filters.Analysis
	_ = r.tr.do("filters.Analyze", parent, func(int) error {
		feats := make([]*feature.Feature, len(set.BlockingIdx))
		for i, idx := range set.BlockingIdx {
			feats[i] = &set.Features[idx]
		}
		an = filters.Analyze(rules.ToCNF(m.RuleSeq), feats)
		return nil
	})
	ix := filters.NewIndexes(cluster, a)
	if err := r.tr.do("Indexes.EnsureAll", parent, func(int) error {
		_, err := ix.EnsureAll(ctx, an.NeededIndexes())
		return err
	}); err != nil {
		return nil, fmt.Errorf("building indexes: %w", err)
	}
	if err := r.tr.do("block.Run", parent, func(int) error {
		in := &block.Input{A: a, B: b, Analysis: an, Indexes: ix, Vectorizer: vz, ClauseSel: m.ClauseSel, PassIDsOnly: true}
		sel := 1.0
		for _, v := range m.ClauseSel {
			sel *= v
		}
		res, err := block.Run(ctx, cluster, in, block.Choose(cluster, in, sel))
		if err != nil {
			return err
		}
		candidates = res.Pairs
		st.enumerated += res.PairsEnumerated
		return nil
	}); err != nil {
		return nil, fmt.Errorf("blocking: %w", err)
	}

	var matches []table.Pair
	_ = r.tr.do("matcher loop", parent, func(int) error {
		for _, p := range candidates {
			t0 := time.Now()
			vec := vz.Vector(p)
			t1 := time.Now()
			ok := m.Matcher.Predict(vec.Values)
			t2 := time.Now()
			st.vectorize += t1.Sub(t0)
			st.predict += t2.Sub(t1)
			if ok {
				matches = append(matches, p)
			}
		}
		return nil
	})
	return &applyResult{matches: matches, candidates: len(candidates)}, nil
}
