// Package serve is the serving half of the train/serve split: it turns a
// frozen model.MatcherArtifact into a Bundle — resolved B-side columns,
// rebuilt filter indexes, and a per-request scratch pool — publishes
// bundles through a lock-free Registry, and answers point-match queries
// with MatchOne, which runs block→feature→forest for one incoming
// A-shaped record against the frozen B table.
//
// The batch pipeline indexes table A and probes it with rows of B; serving
// flips the roles — the artifact carries prefix postings over B, and the
// incoming record probes them. The flip is sound because every filterable
// measure is symmetric in its two arguments (filters yield a candidate
// superset either way), and exact because every blocking strategy
// converges to "the pairs the positive CNF rule keeps": MatchOne
// re-applies the same CNF to bit-identical feature values, so its answer
// for a record equals the batch answer for that row.
package serve

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"falcon/internal/feature"
	"falcon/internal/filters"
	"falcon/internal/forest"
	"falcon/internal/index"
	"falcon/internal/model"
	"falcon/internal/rules"
	"falcon/internal/simfn"
	"falcon/internal/table"
	"falcon/internal/tokenize"
)

// tokSlot identifies one per-request tokenization: the record column and
// the scheme. Features sharing a slot tokenize the record once.
type tokSlot struct {
	acol int
	kind tokenize.Kind
}

// featCols is one feature's frozen B-side operands plus its request-side
// slot assignments. Only the fields for the feature's measure family are
// set, mirroring feature.Vectorizer's column bundles.
type featCols struct {
	measure simfn.Measure
	acol    int // record column the request-side operand comes from
	tokSlot int // index into Bundle.tokSlots, -1 when not set-based

	corpus *simfn.Corpus  // corpus-based measures
	dict   *tokenize.Dict // count-set: the correspondence dictionary

	numB  []float64
	okB   []bool
	idsB  [][]uint32
	packB []simfn.PackedIDs // idsB with bit-parallel signatures attached
	tokB  [][]string
	docB  []simfn.WeightedDoc
	normB []string
}

// predPlan is one CNF predicate bound to its B-side filter index; the
// serving twin of filters.BoundPred with the probe roles flipped.
type predPlan struct {
	pred      rules.Predicate
	kind      filters.Kind
	measure   simfn.Measure
	threshold float64
	feat      int // full-space feature index (record-side operand)
	acol      int // record column holding the probe value

	hash   *index.HashIndex
	tree   *index.TreeIndex
	prefix *index.PrefixIndex
	ord    *index.Ordering
	slot   int // per-request probe slot (range and prefix kinds)
}

// Bundle is a matcher artifact resolved for serving: B-side operand
// columns per feature, filter indexes over B for the one clause it probes,
// the positive CNF, and the forest. Nothing reachable from a bundle is
// written after NewBundle returns; per-request state cycles through the
// scratch pool.
type Bundle struct {
	art *model.MatcherArtifact
	b   *table.Table
	f   *forest.Forest
	// verify is the positive CNF over full-space feature indexes, in the
	// cheapest-first order of filters.Analysis.Verify.
	verify rules.CNF

	aCols       map[string]int // A attribute name → record position
	nA          int
	blockingIdx []int // blocking position → full-space feature index
	feats       []featCols
	tokSlots    []tokSlot
	// probe is the predicate plan of the filterable clause with the lowest
	// ClauseSel (a disjunction: candidates are the union over its
	// predicates); nil when no clause can prune.
	probe      []predPlan
	nPredSlots int

	scratch sync.Pool // *reqScratch
}

// NewBundle resolves an artifact into a serving bundle: it rebuilds the
// corpora and feature space, parses/tokenizes/encodes every B column a
// feature reads, reconstructs the prefix indexes from the artifact's
// postings, and builds the hash/tree indexes over B that equivalence and
// range filters probe. The artifact must carry a serving payload (B table
// and feature specs), i.e. come from a completed training run or a Load.
//
//falcon:frozen
func NewBundle(art *model.MatcherArtifact) (*Bundle, error) {
	if art == nil || art.Matcher == nil {
		return nil, fmt.Errorf("serve: artifact has no matcher")
	}
	if art.B == nil || len(art.Feats) == 0 {
		return nil, fmt.Errorf("serve: artifact carries no serving payload (interim model-only artifact?)")
	}
	if len(art.Feats) != len(art.FeatureNames) {
		return nil, fmt.Errorf("serve: artifact has %d feature specs for %d features", len(art.Feats), len(art.FeatureNames))
	}
	bn := &Bundle{
		art:         art,
		b:           art.B,
		f:           art.Matcher,
		aCols:       make(map[string]int, len(art.AAttrs)),
		nA:          len(art.AAttrs),
		blockingIdx: art.BlockingIdx,
	}
	for i, at := range art.AAttrs {
		bn.aCols[at.Name] = i
	}

	corpora := make([]*simfn.Corpus, len(art.Corpora))
	for i := range art.Corpora {
		c := &art.Corpora[i]
		corpora[i] = simfn.CorpusFromState(c.Docs, c.Toks, c.DFs)
	}

	if err := bn.resolveFeatures(corpora); err != nil {
		return nil, err
	}
	if err := bn.planClauses(corpora); err != nil {
		return nil, err
	}

	nf := len(bn.feats)
	nt := len(bn.tokSlots)
	np := bn.nPredSlots
	bn.scratch.New = func() any {
		return &reqScratch{
			bn:     bn,
			num:    make([]float64, nf),
			numOk:  make([]bool, nf),
			ids:    make([][]uint32, nf),
			pack:   make([]simfn.PackedIDs, nf),
			docs:   make([]simfn.WeightedDoc, nf),
			norm:   make([]string, nf),
			toks:   make([][]string, nt),
			pids:   make([][]uint32, np),
			pcands: make([][]int32, np),
			vals:   make([]float64, nf),
			stamp:  make([]uint32, nf),
		}
	}
	return bn, nil
}

// resolveFeatures builds every feature's frozen B-side operand column,
// sharing per-(column, scheme) tokenizations and parses across features.
func (bn *Bundle) resolveFeatures(corpora []*simfn.Corpus) error {
	b := bn.b
	tokCache := map[tokSlot][][]string{}
	numCache := map[int][]float64{}
	okCache := map[int][]bool{}
	normCache := map[int][]string{}
	packCache := map[string][]simfn.PackedIDs{}
	slotOf := map[tokSlot]int{}

	tokCol := func(col int, kind tokenize.Kind) [][]string {
		k := tokSlot{col, kind}
		if rows, ok := tokCache[k]; ok {
			return rows
		}
		rows := make([][]string, b.Len())
		for row := range rows {
			val := b.Value(row, col)
			if table.IsMissing(val) {
				rows[row] = []string{}
			} else {
				rows[row] = tokenize.Set(kind, val)
			}
		}
		tokCache[k] = rows
		return rows
	}
	reqSlot := func(acol int, kind tokenize.Kind) int {
		k := tokSlot{acol, kind}
		if s, ok := slotOf[k]; ok {
			return s
		}
		s := len(bn.tokSlots)
		slotOf[k] = s
		bn.tokSlots = append(bn.tokSlots, k)
		return s
	}

	bn.feats = make([]featCols, len(bn.art.Feats))
	for i := range bn.art.Feats {
		sp := &bn.art.Feats[i]
		fc := &bn.feats[i]
		fc.measure = sp.Measure
		fc.acol = sp.ACol
		fc.tokSlot = -1
		switch {
		case sp.Measure.NumericBased():
			if nums, ok := numCache[sp.BCol]; ok {
				fc.numB, fc.okB = nums, okCache[sp.BCol]
				break
			}
			nums := make([]float64, b.Len())
			oks := make([]bool, b.Len())
			for row := 0; row < b.Len(); row++ {
				s := strings.TrimSpace(b.Value(row, sp.BCol))
				if table.IsMissing(s) {
					continue
				}
				if f, err := strconv.ParseFloat(s, 64); err == nil {
					nums[row], oks[row] = f, true
				}
			}
			numCache[sp.BCol], okCache[sp.BCol] = nums, oks
			fc.numB, fc.okB = nums, oks
		case sp.Measure.SetBased():
			fc.tokSlot = reqSlot(sp.ACol, sp.Token)
			switch {
			case feature.CountSet(sp.Measure):
				key := model.CorrKey(sp.ACol, sp.BCol, sp.Token)
				dict := bn.art.Dicts[key]
				corr := bn.corrData(sp.ACol, sp.BCol, sp.Token)
				if dict == nil || corr == nil {
					return fmt.Errorf("serve: artifact missing correspondence %s", key)
				}
				fc.dict = dict
				fc.idsB = corr.RowsB
				// Signatures are a serving-side resolution of the frozen ID
				// rows — the artifact wire format is untouched. Features of
				// one correspondence share the packed column.
				if packed, ok := packCache[key]; ok {
					fc.packB = packed
				} else {
					packed = make([]simfn.PackedIDs, len(corr.RowsB))
					for row, ids := range corr.RowsB {
						packed[row] = simfn.PackIDs(ids)
					}
					packCache[key] = packed
					fc.packB = packed
				}
			case sp.Measure.CorpusBased():
				if sp.Corpus < 0 || sp.Corpus >= len(corpora) {
					return fmt.Errorf("serve: feature %q references missing corpus %d", sp.Name, sp.Corpus)
				}
				fc.corpus = corpora[sp.Corpus]
				toks := tokCol(sp.BCol, sp.Token)
				fc.docB = make([]simfn.WeightedDoc, len(toks))
				for row, ts := range toks {
					fc.docB[row] = fc.corpus.WeightedDocOf(ts)
				}
			default: // MongeElkan: raw token sets
				fc.tokB = tokCol(sp.BCol, sp.Token)
			}
		default:
			if norm, ok := normCache[sp.BCol]; ok {
				fc.normB = norm
				break
			}
			norm := make([]string, b.Len())
			for row := range norm {
				val := b.Value(row, sp.BCol)
				if table.IsMissing(val) {
					continue
				}
				norm[row] = strings.ToLower(strings.TrimSpace(val))
			}
			normCache[sp.BCol] = norm
			fc.normB = norm
		}
	}
	return nil
}

// planClauses re-derives the filter plan of the learned CNF over the
// role-flipped feature space (probe record against indexed B), keeps its
// cheapest-first check order for scoreRow, and binds the predicates of the
// clause the bundle probes — the filterable clause with the lowest
// ClauseSel, chosen as apply-greedy chooses it — to B-side indexes: prefix
// indexes come from the artifact's postings, hash and tree indexes are
// rebuilt from the B table (cheap and deterministic). Other clauses get no
// index: scoreRow verifies them.
func (bn *Bundle) planClauses(corpora []*simfn.Corpus) error {
	cnf := rules.ToCNF(bn.art.RuleSeq)
	if len(cnf.Clauses) == 0 {
		return nil
	}
	flipped := make([]*feature.Feature, len(bn.blockingIdx))
	for pos, fi := range bn.blockingIdx {
		if fi < 0 || fi >= len(bn.art.Feats) {
			return fmt.Errorf("serve: blocking index %d out of range", fi)
		}
		sp := &bn.art.Feats[fi]
		var c *simfn.Corpus
		if sp.Corpus >= 0 && sp.Corpus < len(corpora) {
			c = corpora[sp.Corpus]
		}
		// A and B columns swap roles: the spec's "A" side is the indexed B.
		f := feature.NewBoundFeature(pos, sp.Name, sp.Measure, sp.Token, sp.BCol, sp.ACol, sp.Attr, sp.Blockable, c)
		flipped[pos] = &f
	}
	an := filters.Analyze(cnf, flipped)
	// Verify's clauses are fresh copies: re-point them at full-space
	// features, the space the memo and the forest share.
	bn.verify = an.Verify
	for _, cl := range bn.verify.Clauses {
		for i := range cl {
			cl[i].Feature = bn.blockingIdx[cl[i].Feature]
		}
	}
	ci := an.MostSelectiveClause(bn.art.ClauseSel)
	if ci < 0 {
		return nil
	}

	// Predicates of one clause on the same column (or prefix spec) share
	// one index.
	hashBy := map[int]*index.HashIndex{}
	treeBy := map[int]*index.TreeIndex{}
	prefixBy := map[string]*index.PrefixIndex{}
	for _, bp := range an.Clauses[ci].Preds {
		pp := predPlan{
			pred:      bp.Pred,
			kind:      bp.Kind,
			measure:   bp.Feat.Measure,
			threshold: bp.Threshold,
			feat:      bn.blockingIdx[bp.Pred.Feature],
			acol:      bp.Feat.BCol, // flipped: the record-side column
			slot:      -1,
		}
		bcol := bp.Feat.ACol // flipped: the indexed B column
		switch bp.Kind {
		case filters.Equivalence:
			if hashBy[bcol] == nil {
				hashBy[bcol] = index.BuildHash(bn.b, bcol)
			}
			pp.hash = hashBy[bcol]
		case filters.Range:
			if treeBy[bcol] == nil {
				treeBy[bcol] = index.BuildTree(bn.b, bcol)
			}
			pp.tree = treeBy[bcol]
		case filters.PrefixSet, filters.ShareGram:
			spec := filters.IndexSpec{Kind: bp.Kind, ACol: bcol, Token: bp.Feat.Token, Measure: bp.Feat.Measure}
			if bp.Kind == filters.ShareGram {
				spec.Token, spec.Measure = tokenize.Gram3, simfn.MLevenshtein
			}
			pd := bn.prefixData(spec.Key())
			if pd == nil {
				return fmt.Errorf("serve: artifact missing prefix index %s", spec.Key())
			}
			if bp.Threshold < pd.Threshold {
				return fmt.Errorf("serve: prefix index %s built at threshold %g, predicate needs %g",
					spec.Key(), pd.Threshold, bp.Threshold)
			}
			if prefixBy[spec.Key()] == nil {
				prefixBy[spec.Key()] = index.PrefixFromParts(pd.Token, pd.Threshold, index.OrderingOf(pd.Ranked), pd.Post, pd.SetLen)
			}
			pp.prefix = prefixBy[spec.Key()]
			pp.ord = pp.prefix.Ord()
		}
		if pp.tree != nil || pp.prefix != nil {
			pp.slot = bn.nPredSlots
			bn.nPredSlots++
		}
		bn.probe = append(bn.probe, pp)
	}
	return nil
}

// prefixData finds the artifact's prefix index for a spec key, or nil.
func (bn *Bundle) prefixData(key string) *model.PrefixData {
	for i := range bn.art.Prefix {
		if pd := &bn.art.Prefix[i]; pd.Spec().Key() == key {
			return pd
		}
	}
	return nil
}

// corrData finds the artifact's correspondence entry, or nil.
func (bn *Bundle) corrData(acol, bcol int, kind tokenize.Kind) *model.CorrData {
	for i := range bn.art.Corrs {
		c := &bn.art.Corrs[i]
		if c.ACol == acol && c.BCol == bcol && c.Kind == kind {
			return c
		}
	}
	return nil
}

// Artifact returns the bundle's underlying (frozen) artifact.
func (bn *Bundle) Artifact() *model.MatcherArtifact { return bn.art }

// BRows returns the size of the frozen reference table.
func (bn *Bundle) BRows() int { return bn.b.Len() }

// BValues returns one frozen B row's values (the table's backing slice;
// callers must not mutate it).
func (bn *Bundle) BValues(row int) []string { return bn.b.Tuples[row].Values }

// BNames returns the frozen B table's column names.
func (bn *Bundle) BNames() []string { return bn.b.Schema.Names() }

// ColNames returns the A-schema column names a record must follow.
func (bn *Bundle) ColNames() []string {
	out := make([]string, len(bn.art.AAttrs))
	for i, at := range bn.art.AAttrs {
		out[i] = at.Name
	}
	return out
}

// Record builds the A-schema-ordered value slice from named values.
// Unknown names are rejected; absent columns become empty (missing).
func (bn *Bundle) Record(values map[string]string) ([]string, error) {
	rec := make([]string, bn.nA)
	for name, v := range values {
		col, ok := bn.aCols[name]
		if !ok {
			return nil, fmt.Errorf("serve: record column %q not in schema %v", name, bn.ColNames())
		}
		rec[col] = v
	}
	return rec, nil
}
