package feature

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"falcon/internal/datagen"
	"falcon/internal/forest"
	"falcon/internal/rules"
	"falcon/internal/table"
)

// evalFixture is a Products-shaped table pair with a learned positive CNF
// over the blocking space (in the cheapest-first check order) and a
// matching forest over the full space.
type evalFixture struct {
	ds     *datagen.Dataset
	set    *Set
	verify rules.CNF
	f      *forest.Forest
	pairs  []table.Pair
}

func newEvalFixture(t *testing.T) *evalFixture {
	t.Helper()
	ds := datagen.Products(0.02, 9)
	set := Generate(ds.A, ds.B)
	vz := NewVectorizer(set, ds.A, ds.B)
	var train []table.Pair
	for p := range ds.Truth {
		train = append(train, p)
	}
	for i := 0; i < 4*len(ds.Truth); i++ {
		train = append(train, table.Pair{A: (i * 7) % ds.A.Len(), B: (i * 13) % ds.B.Len()})
	}
	slices.SortFunc(train, func(x, y table.Pair) int {
		if c := cmp.Compare(x.A, y.A); c != 0 {
			return c
		}
		return cmp.Compare(x.B, y.B)
	})
	var full, blocking []forest.Example
	for _, p := range train {
		full = append(full, forest.Example{Values: vz.Vector(p).Values, Label: ds.Truth[p]})
		blocking = append(blocking, forest.Example{Values: vz.BlockingVector(p).Values, Label: ds.Truth[p]})
	}
	seq := rules.Extract(forest.Train(blocking, forest.Config{NumTrees: 5, Seed: 3}))
	if len(seq) > 4 {
		seq = seq[:4]
	}
	if len(seq) < 2 {
		t.Fatalf("fixture learned %d blocking rules, want at least 2", len(seq))
	}
	verify := rules.ToCNF(seq).Ordered(func(i int) int { return EvalRank(set.Features[set.BlockingIdx[i]].Measure) })
	fx := &evalFixture{ds: ds, set: set, verify: verify, f: forest.Train(full, forest.Config{NumTrees: 7, Seed: 4})}
	for a := 0; a < ds.A.Len(); a += 2 {
		for b := 0; b < ds.B.Len(); b += 5 {
			fx.pairs = append(fx.pairs, table.Pair{A: a, B: b})
		}
	}
	fx.pairs = append(fx.pairs, train...)
	return fx
}

var evalModes = []struct {
	name      string
	reference bool
	idsOnly   bool
}{{"reference", true, false}, {"ids", false, true}, {"bitparallel", false, false}}

// TestPairEvalMatchesEager is the differential test of the on-demand
// evaluator: in every evaluator mode, the on-demand CNF check and forest
// walk give exactly what the eager vectors give.
func TestPairEvalMatchesEager(t *testing.T) {
	fx := newEvalFixture(t)
	for _, mode := range evalModes {
		vz := NewVectorizer(fx.set, fx.ds.A, fx.ds.B)
		vz.Reference, vz.IDsOnly = mode.reference, mode.idsOnly
		be, fe := vz.Eval(fx.set.BlockingIdx), vz.Eval(nil)
		kept := 0
		for _, p := range fx.pairs {
			want := fx.verify.Keep(vz.BlockingVector(p).Values)
			if got := fx.verify.KeepOn(be.Reset(p)); got != want {
				t.Fatalf("%s %v: on-demand keep %v, eager %v", mode.name, p, got, want)
			}
			if want {
				kept++
			}
			vec := vz.Vector(p).Values
			votes := fx.f.VotesOn(fe.Reset(p))
			if want := fx.f.Votes(vec); votes != want {
				t.Fatalf("%s %v: on-demand votes %d, eager %d", mode.name, p, votes, want)
			}
			if got, want := fx.f.Fraction(votes), fx.f.Confidence(vec); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %v: on-demand confidence %v, eager %v", mode.name, p, got, want)
			}
			if got, want := fx.f.Majority(votes), fx.f.Predict(vec); got != want {
				t.Fatalf("%s %v: on-demand predict %v, eager %v", mode.name, p, got, want)
			}
		}
		be.Release()
		fe.Release()
		if kept == 0 || kept == len(fx.pairs) {
			t.Fatalf("%s: CNF keeps %d of %d pairs; the fixture does not exercise both outcomes", mode.name, kept, len(fx.pairs))
		}
	}
}

// read returns the positions the evaluator computed for its current pair.
func (e *PairEval) read() map[int]bool {
	out := map[int]bool{}
	for i, st := range e.stamp {
		if st == e.gen {
			out[i] = true
		}
	}
	return out
}

// TestPairEvalReadsOnlyWhatDecisionsNeed pins laziness: a CNF check
// computes exactly the features its short-circuit reads (none past the
// first failing clause), a forest walk computes exactly the features on
// its trees' paths, and a feature read twice is computed once.
func TestPairEvalReadsOnlyWhatDecisionsNeed(t *testing.T) {
	fx := newEvalFixture(t)
	vz := NewVectorizer(fx.set, fx.ds.A, fx.ds.B)
	be, fe := vz.Eval(fx.set.BlockingIdx), vz.Eval(nil)
	defer be.Release()
	defer fe.Release()
	dropped := 0
	for _, p := range fx.pairs {
		bvec := vz.BlockingVector(p).Values
		want := map[int]bool{}
		for _, cl := range fx.verify.Clauses {
			held := false
			for _, pr := range cl {
				want[pr.Feature] = true
				if pr.Eval(bvec[pr.Feature]) {
					held = true
					break
				}
			}
			if !held {
				dropped++
				break
			}
		}
		before := be.computed
		fx.verify.KeepOn(be.Reset(p))
		fx.verify.KeepOn(be) // a second check reads only remembered values
		if got := be.read(); !maps(got, want) {
			t.Fatalf("%v: CNF check computed %v, its short-circuit reads %v", p, got, want)
		}
		if n := be.computed - before; n != len(want) {
			t.Fatalf("%v: CNF check made %d computations for %d distinct features", p, n, len(want))
		}

		vec := vz.Vector(p).Values
		want = map[int]bool{}
		for _, tr := range fx.f.Trees {
			for n := tr.Root; !n.IsLeaf(); {
				want[n.Feature] = true
				if vec[n.Feature] <= n.Threshold {
					n = n.Left
				} else {
					n = n.Right
				}
			}
		}
		before = fe.computed
		fx.f.VotesOn(fe.Reset(p))
		if got := fe.read(); !maps(got, want) {
			t.Fatalf("%v: forest walk computed %v, its paths read %v", p, got, want)
		}
		if n := fe.computed - before; n != len(want) {
			t.Fatalf("%v: forest walk made %d computations for %d distinct features", p, n, len(want))
		}
		if len(want) >= len(fx.set.Features) {
			t.Fatalf("%v: forest paths read all %d features; the fixture does not exercise laziness", p, len(want))
		}
	}
	if dropped == 0 {
		t.Fatal("no pair failed a clause; the fixture does not exercise the short-circuit")
	}
}

func maps(a, b map[int]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// TestPairEvalAllocs pins the blocking reducer's budget: after Warm, one
// key group — take an evaluator, check the CNF on every B row, release —
// makes at most two allocations.
func TestPairEvalAllocs(t *testing.T) {
	fx := newEvalFixture(t)
	vz := NewVectorizer(fx.set, fx.ds.A, fx.ds.B)
	vz.Warm()
	bRows := make([]int32, 24)
	for i := range bRows {
		bRows[i] = int32((i * 11) % fx.ds.B.Len())
	}
	kept := 0
	group := func(a int) {
		e := vz.Eval(fx.set.BlockingIdx)
		for _, b := range bRows {
			if fx.verify.KeepOn(e.Reset(table.Pair{A: a, B: int(b)})) {
				kept++
			}
		}
		e.Release()
	}
	group(0)
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		group(i % fx.ds.A.Len())
		i++
	})
	if allocs > 2 {
		t.Fatalf("one key group allocates %.1f objects after warm-up, want <= 2", allocs)
	}
}

// TestPairEvalComputesSharedFeatureOnce spells the laziness rules out on
// hand-built rules: a failing first clause stops the check before the next
// clause's feature, and a feature read by two clauses and two trees of the
// same pair is computed once.
func TestPairEvalComputesSharedFeatureOnce(t *testing.T) {
	fx := newEvalFixture(t)
	vz := NewVectorizer(fx.set, fx.ds.A, fx.ds.B)
	e := vz.Eval(nil)
	defer e.Release()
	// Every feature value is ≥ Missing (−1), so these never/always hold.
	never := func(f int) rules.Predicate { return rules.Predicate{Feature: f, Op: rules.LT, Value: -2} }
	always := func(f int) rules.Predicate { return rules.Predicate{Feature: f, Op: rules.GE, Value: -2} }
	p := fx.pairs[0]

	cnf := rules.CNF{Clauses: []rules.Clause{{never(0)}, {always(1)}}}
	if cnf.KeepOn(e.Reset(p)) {
		t.Fatal("a CNF whose first clause fails kept the pair")
	}
	if got := e.read(); !maps(got, map[int]bool{0: true}) || e.computed != 1 {
		t.Fatalf("failing first clause: computed %v (%d computations), want only feature 0", got, e.computed)
	}

	cnf = rules.CNF{Clauses: []rules.Clause{{always(2)}, {never(3), always(2)}}}
	split := func() *forest.Tree {
		return &forest.Tree{Root: &forest.Node{Feature: 2, Threshold: math.Inf(1),
			Left: &forest.Node{Feature: -1, Match: true}, Right: &forest.Node{Feature: -1}}}
	}
	f := &forest.Forest{Trees: []*forest.Tree{split(), split()}}
	before := e.computed
	if !cnf.KeepOn(e.Reset(p)) {
		t.Fatal("a CNF of holding clauses dropped the pair")
	}
	if votes := f.VotesOn(e); votes != 2 {
		t.Fatalf("votes = %d, want 2", votes)
	}
	if got, n := e.read(), e.computed-before; !maps(got, map[int]bool{2: true, 3: true}) || n != 2 {
		t.Fatalf("shared feature: computed %v in %d computations, want features 2 and 3 once each", got, n)
	}
}
