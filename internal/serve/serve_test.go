package serve

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"falcon/internal/block"
	"falcon/internal/core"
	"falcon/internal/crowd"
	"falcon/internal/datagen"
	"falcon/internal/feature"
	"falcon/internal/filters"
	"falcon/internal/model"
	"falcon/internal/rules"
)

// trainSongs runs the full batch workflow at laptop scale and returns the
// dataset and result (with its serving artifact).
func trainSongs(t testing.TB, n int, seed int64, mut func(*core.Options)) (*datagen.Dataset, *core.Result) {
	t.Helper()
	opt := core.DefaultOptions()
	opt.Seed = seed
	opt.SampleN = 4000
	opt.SampleY = 20
	opt.ALIterations = 10
	opt.MaskedSelectionMinPool = 1000
	opt.Platform = crowd.NewRandomWorkers(0, 0, seed+1)
	if mut != nil {
		mut(&opt)
	}
	d := datagen.Songs(n, 42)
	res, err := core.Run(d.A, d.B, d.Oracle(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return d, res
}

// loadBundle round-trips the artifact through the wire format and builds a
// serving bundle, so equivalence checks also exercise Save/Load.
func loadBundle(t testing.TB, res *core.Result) *Bundle {
	t.Helper()
	if res.Artifact == nil {
		t.Fatal("run produced no artifact")
	}
	var buf bytes.Buffer
	if err := res.Artifact.Save(&buf); err != nil {
		t.Fatal(err)
	}
	art, err := model.LoadArtifact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	bn, err := NewBundle(art)
	if err != nil {
		t.Fatal(err)
	}
	return bn
}

// checkEquivalence asserts that MatchOne on every A row reproduces exactly
// the batch run's matches for that row.
func checkEquivalence(t *testing.T, d *datagen.Dataset, res *core.Result) {
	t.Helper()
	bn := loadBundle(t, res)
	want := map[int]map[int]bool{}
	for _, p := range res.Matches {
		if want[p.A] == nil {
			want[p.A] = map[int]bool{}
		}
		want[p.A][p.B] = true
	}
	if len(res.Matches) == 0 {
		t.Fatal("batch run produced no matches; equivalence check is vacuous")
	}
	for a := 0; a < d.A.Len(); a++ {
		got, err := bn.MatchOne(d.A.Tuples[a].Values)
		if err != nil {
			t.Fatal(err)
		}
		gotSet := map[int]bool{}
		for _, m := range got {
			gotSet[m.BRow] = true
			if m.Score <= 0.5 {
				t.Errorf("row %d: match %d has score %.3f, want majority confidence", a, m.BRow, m.Score)
			}
		}
		for b := range want[a] {
			if !gotSet[b] {
				t.Errorf("row %d: batch match %d missing from serve answer", a, b)
			}
		}
		for b := range gotSet {
			if !want[a][b] {
				t.Errorf("row %d: serve match %d absent from batch answer", a, b)
			}
		}
	}
}

func TestServeMatchesBatchBlockingPlan(t *testing.T) {
	force := true
	d, res := trainSongs(t, 800, 1, func(o *core.Options) { o.ForceBlocking = &force })
	if !res.UsedBlocking {
		t.Fatal("blocking plan not used")
	}
	if len(res.Artifact.Prefix) == 0 && len(res.Artifact.RuleSeq) > 0 {
		t.Log("note: learned rules needed no prefix indexes")
	}
	checkEquivalence(t, d, res)
}

func TestServeMatchesBatchMatcherOnlyPlan(t *testing.T) {
	d, res := trainSongs(t, 60, 2, nil)
	if res.UsedBlocking {
		t.Fatal("tiny tables should take the matcher-only plan")
	}
	checkEquivalence(t, d, res)
}

func TestServeMatchesBatchAllStrategies(t *testing.T) {
	force := true
	for _, s := range []block.Strategy{
		block.ApplyAll, block.ApplyGreedy, block.ApplyConjunct,
		block.ApplyPredicate, block.MapSide, block.ReduceSplit,
	} {
		strat := s
		d, res := trainSongs(t, 400, 4, func(o *core.Options) {
			o.ForceBlocking = &force
			o.ForceStrategy = &strat
		})
		if res.Strategy != s {
			t.Fatalf("strategy = %v, want %v", res.Strategy, s)
		}
		checkEquivalence(t, d, res)
	}
}

func TestRecordByName(t *testing.T) {
	d, res := trainSongs(t, 60, 2, nil)
	bn := loadBundle(t, res)

	names := bn.ColNames()
	vals := map[string]string{}
	for i, n := range names {
		vals[n] = d.A.Tuples[0].Values[i]
	}
	rec, err := bn.Record(vals)
	if err != nil {
		t.Fatal(err)
	}
	fromMap, err := bn.MatchOne(rec)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := bn.MatchOne(d.A.Tuples[0].Values)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromMap) != len(direct) {
		t.Fatalf("named record answer %v != positional answer %v", fromMap, direct)
	}

	if _, err := bn.Record(map[string]string{"no_such_column": "x"}); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := bn.MatchOne(make([]string, len(names)+1)); err == nil {
		t.Fatal("wrong-arity record accepted")
	}
}

func TestNewBundleRejectsModelOnlyArtifact(t *testing.T) {
	_, res := trainSongs(t, 60, 2, nil)
	interim := model.NewMatcherArtifact(res.Artifact.TrainedModel(), nil)
	if _, err := NewBundle(interim); err == nil {
		t.Fatal("bundle built from artifact without serving payload")
	}
	if _, err := NewBundle(nil); err == nil {
		t.Fatal("bundle built from nil artifact")
	}
}

// TestServeMatchesBatchProducts checks serve against batch on a
// Products-shaped artifact whose Q mixes Range and prefix clauses, probed
// through each kind: the trained artifact (its lowest ClauseSel names a
// prefix clause) and a copy whose ClauseSel makes a Range clause the
// lowest. MatchOne must return the batch matches of every A row, in
// ascending B order, each scored with the batch Forest.Confidence of the
// full vector.
func TestServeMatchesBatchProducts(t *testing.T) {
	opt := core.DefaultOptions()
	opt.Seed = 5
	opt.Platform = crowd.NewRandomWorkers(0, 0, 6)
	force, greedy := true, block.ApplyGreedy
	opt.ForceBlocking, opt.ForceStrategy = &force, &greedy
	d := datagen.Products(0.05, 101)
	res, err := core.Run(d.A, d.B, d.Oracle(), opt)
	if err != nil {
		t.Fatal(err)
	}
	art := loadBundle(t, res).Artifact()

	// Find a Range clause (a numeric distance bounded above) and a prefix
	// clause (a set similarity bounded below) in Q.
	rangeClause, prefixClause := -1, -1
	for ci, r := range art.RuleSeq {
		if len(r.Preds) != 1 {
			continue
		}
		keep := r.Preds[0].Negate()
		m := art.Feats[art.BlockingIdx[keep.Feature]].Measure
		switch {
		case m.NumericBased() && (keep.Op == rules.LE || keep.Op == rules.LT):
			rangeClause = ci
		case feature.CountSet(m) && (keep.Op == rules.GT || keep.Op == rules.GE):
			prefixClause = ci
		}
	}
	if rangeClause < 0 || prefixClause < 0 {
		t.Fatalf("Q = %v does not mix Range and prefix clauses", rules.ToCNF(art.RuleSeq))
	}
	rangeLowest := *art.TrainedModel()
	rangeLowest.ClauseSel = slices.Clone(art.ClauseSel)
	rangeLowest.ClauseSel[rangeClause] = slices.Min(art.ClauseSel) / 2
	alt := model.NewMatcherArtifact(&rangeLowest, &model.ServingData{
		Feats: art.Feats, Corpora: art.Corpora, AName: art.AName, AAttrs: art.AAttrs,
		B: art.B, Corrs: art.Corrs, Prefix: art.Prefix, Dicts: art.Dicts,
	})

	for _, tc := range []struct {
		name string
		art  *model.MatcherArtifact
		kind filters.Kind
	}{{"prefix-probe", art, filters.PrefixSet}, {"range-probe", alt, filters.Range}} {
		bn, err := NewBundle(tc.art)
		if err != nil {
			t.Fatal(err)
		}
		if len(bn.probe) != 1 || bn.probe[0].kind != tc.kind {
			t.Fatalf("%s: bundle probes %d predicates, want one %v predicate", tc.name, len(bn.probe), tc.kind)
		}
		batch, _, err := tc.art.ApplyContext(context.Background(), nil, d.A, d.B)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) == 0 {
			t.Fatalf("%s: batch apply found no matches; the check is vacuous", tc.name)
		}
		set, err := tc.art.TrainedModel().Bind(d.A, d.B)
		if err != nil {
			t.Fatal(err)
		}
		vz := feature.NewVectorizer(set, d.A, d.B)
		want := make([][]Match, d.A.Len())
		for _, p := range batch {
			want[p.A] = append(want[p.A], Match{BRow: p.B, Score: tc.art.Matcher.Confidence(vz.Vector(p).Values)})
		}
		for a := 0; a < d.A.Len(); a++ {
			got, err := bn.MatchOne(d.A.Tuples[a].Values)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want[a]) {
				t.Fatalf("%s row %d: serve %v, batch %v", tc.name, a, got, want[a])
			}
		}
	}
}
