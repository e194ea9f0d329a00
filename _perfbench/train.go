package main

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"falcon"
	"falcon/internal/datagen"
	"falcon/internal/model"
)

// The train-products task is fixed: Products at generator scale 1.0, data
// seed 7, training seed 5, which learns a prefix-index rule. The learned plan changes discontinuously with
// the data, the row order and the training seed (README.md), so a seeded
// variant would measure a different task on every seed.
const (
	productsScale    = 1.0
	productsDataSeed = 7
	trainSeed        = 5
	alIterations     = 12
	maxSample        = 60_000
)

// trainOptions are the hands-off options of every training run.
func trainOptions(d *datagen.Dataset) []falcon.Option {
	n := 10 * d.B.Len()
	if n > maxSample {
		n = maxSample
	}
	return []falcon.Option{
		falcon.WithSeed(trainSeed),
		falcon.WithBlocking(true),
		falcon.WithSampleSize(n),
		falcon.WithMaxIterations(alIterations),
	}
}

// countingLabeler counts questions and the time spent answering them.
type countingLabeler struct {
	inner falcon.Labeler
	n     atomic.Int64
	ns    atomic.Int64
}

func (c *countingLabeler) Label(a, b []string) bool {
	t0 := time.Now()
	ok := c.inner.Label(a, b)
	c.ns.Add(int64(time.Since(t0)))
	c.n.Add(1)
	return ok
}

// trainOutcome is what one training run produced.
type trainOutcome struct {
	rep      *falcon.Report
	artifact []byte
	digest   string
}

// match runs one hands-off Match inside a span.
func (r *run) match(d *datagen.Dataset, lab falcon.Labeler, parent int) (*falcon.Report, error) {
	var rep *falcon.Report
	err := r.tr.do("falcon.MatchContext", parent, func(int) error {
		var err error
		rep, err = falcon.MatchContext(context.Background(), falcon.WrapTable(d.A), falcon.WrapTable(d.B), lab, trainOptions(d)...)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("match: %w", err)
	}
	return rep, nil
}

// save saves a report's artifact inside a span and digests its matches.
func (r *run) save(rep *falcon.Report, parent int) (*trainOutcome, error) {
	var buf bytes.Buffer
	if err := r.tr.do("Report.SaveArtifact", parent, func(int) error { return rep.SaveArtifact(&buf) }); err != nil {
		return nil, fmt.Errorf("saving artifact: %w", err)
	}
	return &trainOutcome{rep: rep, artifact: buf.Bytes(), digest: pairsDigest(reportPairs(rep))}, nil
}

// train runs one Match and saves its artifact.
func (r *run) train(d *datagen.Dataset, lab falcon.Labeler, parent int) (*trainOutcome, error) {
	rep, err := r.match(d, lab, parent)
	if err != nil {
		return nil, err
	}
	return r.save(rep, parent)
}

// loadArtifact decodes an artifact inside a span.
func (r *run) loadArtifact(b []byte, parent int) (*model.MatcherArtifact, error) {
	var art *model.MatcherArtifact
	err := r.tr.do("model.LoadArtifact", parent, func(int) error {
		var err error
		art, err = model.LoadArtifact(bytes.NewReader(b))
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("loading artifact: %w", err)
	}
	return art, nil
}

// trainOps split the traced train run's CPU time by plan operator. Rules
// are tried in order and a sample goes to the first rule that names a
// frame of its stack: the stage methods of the run state on the main
// goroutine, and the MapReduce job closures on worker goroutines, which
// carry no caller stack. Artifact build includes SaveArtifact.
var trainOps = []opRule{
	{"falcon/internal/sample.", "sample_pairs"},
	{"falcon/internal/core.(*runState).stageSamplePairs", "sample_pairs"},
	{"falcon/internal/core.(*runState).buildArtifact", "build_artifact"},
	{"falcon/internal/model.", "build_artifact"},
	{"falcon/internal/core.applyArtifactMR", "apply_matcher"},
	{"falcon/internal/core.genFVsMR", "gen_fvs"},
	{"falcon/internal/feature.buildIDCols", "gen_fvs"},
	{"falcon/internal/core.(*runState).stageSampleFVs", "gen_fvs"},
	{"falcon/internal/learn.", "al_matcher"},
	{"falcon/internal/forest.Train", "al_matcher"},
	{"falcon/internal/core.(*runState).stageBlockingMatcher", "al_matcher"},
	{"falcon/internal/rulesel.SelectOptSeq", "select_opt_seq"},
	{"falcon/internal/rulesel.", "eval_rules"},
	{"falcon/internal/core.(*runState).stageEvalRules", "eval_rules"},
	{"falcon/internal/core.(*runState).stageExtractRules", "eval_rules"},
	{"falcon/internal/index.Build", "index_build"},
	{"falcon/internal/filters.(*Indexes).Ensure", "index_build"},
	{"falcon/internal/core.(*runState).enqueue", "index_build"},
	{"falcon/internal/core.(*runState).ensureForeground", "index_build"},
	{"falcon/internal/block.", "apply_blocking_rules"},
	{"falcon/internal/core.(*runState).stageApplyBlocking", "apply_blocking_rules"},
	{"falcon/internal/core.(*runState).speculateRules", "apply_blocking_rules"},
}

var trainOpNames = []string{"sample_pairs", "gen_fvs", "al_matcher", "eval_rules", "select_opt_seq",
	"index_build", "apply_blocking_rules", "apply_matcher", "build_artifact", "other"}

func trainProducts(r *run) error {
	var (
		d   *datagen.Dataset
		lab *countingLabeler
	)
	err := r.setup(func(int) error {
		return r.tr.do("setup", 0, func(id int) error {
			return r.tr.do("datagen.Products", id, func(int) error {
				d = datagen.Products(productsScale, productsDataSeed)
				lab = &countingLabeler{inner: rowKeyLabeler(d)}
				return nil
			})
		})
	})
	if err != nil {
		return err
	}
	r.shape["table_a"], r.shape["table_b"] = d.A.Len(), d.B.Len()

	var (
		first *trainOutcome
		rep   *falcon.Report
	)
	op := phaseOp{run: func(_, parent int) error {
		r.attempted++
		var err error
		if rep, err = r.match(d, lab, parent); err != nil {
			r.failed++
		}
		return err
	}, check: func(_, parent int) error {
		o, err := r.save(rep, parent)
		if err != nil {
			return err
		}
		if first == nil {
			first = o
			return nil
		}
		r.gate(o.digest == first.digest, "same-seed Match digest %s != %s", o.digest, first.digest)
		r.gate(o.rep.Questions == first.rep.Questions, "same-seed questions %d != %d", o.rep.Questions, first.rep.Questions)
		r.gate(o.rep.TotalTime == first.rep.TotalTime, "same-seed sim total %v != %v", o.rep.TotalTime, first.rep.TotalTime)
		r.gate(bytes.Equal(o.artifact, first.artifact), "same-seed artifacts differ")
		return nil
	}}

	untraced, err := r.untracedPhase(r.phaseBudget(), 3, op)
	if err != nil {
		return err
	}
	fr := first.rep
	score := f1(reportPairs(fr), d.Truth)
	r.gate(score >= minF1, "train F1 %.4f below %.2f", score, minF1)
	r.e2e("f1", score, "ratio")
	r.e2e("crowd_usd", fr.CrowdCost, "usd")
	r.e2e("artifact_mib", float64(len(first.artifact))/(1<<20), "MiB")
	r.shape["sim_total_h"] = fr.TotalTime.Hours()
	r.shape["candidates"] = fr.CandidatePairs
	r.shape["questions"] = fr.Questions
	r.shape["matches"] = len(fr.Matches)
	r.shape["strategy"] = fr.Strategy
	r.shape["rules_retained"] = fr.RulesRetained
	r.shape["match_digest"] = first.digest

	// The artifact must load and re-save to the same bytes.
	art, err := r.loadArtifact(first.artifact, 0)
	if err != nil {
		return err
	}
	var again bytes.Buffer
	if err := art.Save(&again); err != nil {
		return fmt.Errorf("re-saving artifact: %w", err)
	}
	r.gate(bytes.Equal(again.Bytes(), first.artifact), "artifact does not round-trip through LoadArtifact")
	r.shape["prefix_indexes"] = len(art.Prefix)
	if !r.traced {
		return nil
	}

	lab.n.Store(0)
	lab.ns.Store(0)
	traced, err := r.tracedPhase(median(walls(untraced)), 1, op)
	if err != nil {
		return err
	}
	n := float64(len(traced))
	r.layer("crowd.questions", float64(lab.n.Load())/n, "count")
	r.layer("crowd.label_s", float64(lab.ns.Load())/1e9/n, "s")
	r.layer("core.candidates", float64(fr.CandidatePairs), "count")
	r.layer("core.rules_retained", float64(fr.RulesRetained), "count")
	byOp := byOperator(r.profile, trainOps)
	for _, name := range trainOpNames {
		r.layer("op."+name+"_cpu_s", byOp[name]/n, "s")
	}
	self := selfTimes(r.tr.snapshot())
	r.layer("model.save_s", self["Report.SaveArtifact"]/n, "s")
	r.layer("model.load_s", self["model.LoadArtifact"], "s")
	r.layer("model.artifact_bytes", float64(len(first.artifact)), "bytes")
	return nil
}
