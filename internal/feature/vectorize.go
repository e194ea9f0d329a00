package feature

import (
	"cmp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"falcon/internal/simfn"
	"falcon/internal/table"
	"falcon/internal/tokenize"
)

// Vector is a tuple pair encoded as feature values (the gen_fvs output).
type Vector struct {
	Pair   table.Pair
	Values []float64
}

// Vectorizer converts tuple pairs into feature vectors with per-table
// column caches, so repeated pairs touching the same tuple re-derive
// nothing. Four column representations are kept per (column, measure
// family):
//
//   - token sets as sorted []uint32 dictionary IDs (per attribute
//     correspondence, frequency-ordered — see tokenize.Dict), feeding the
//     allocation-free simfn ID set measures;
//   - token sets as strings, for the measures that need the actual tokens
//     (Monge-Elkan and the TF/IDF family);
//   - normalized (lowercased, trimmed) strings for the sequence measures;
//   - parsed numbers for the numeric measures.
//
// It is safe for concurrent use: columns are built whole on first access
// under a lock and published as immutable slices, so map tasks on the
// worker pool can share one vectorizer. Per-feature resolved column
// bundles are published through atomic pointers, making the per-pair hot
// path lock-free.
type Vectorizer struct {
	Set  *Set
	A, B *table.Table

	// Reference routes evaluation through the retired string-based path
	// (string-token sets + per-pair normalization + allocating simfn
	// calls). Test-only: the golden equivalence tests prove both paths
	// produce bit-identical vectors.
	Reference bool

	// IDsOnly routes the count-set measures through the sorted-merge ID
	// kernels instead of the bit-parallel signature kernels. Test- and
	// benchmark-only: it pins down the PR-3 baseline the golden tests and
	// BENCH_blocking.json compare the packed kernels against (the two paths
	// are bit-identical; see simfn.OverlapPacked).
	IDsOnly bool

	mu     sync.RWMutex
	tokA   map[tokKey][][]string // (col,kind) → per-row token sets
	tokB   map[tokKey][][]string
	numA   map[int][]float64 // col → per-row parsed numbers
	numB   map[int][]float64
	numOkA map[int][]bool
	numOkB map[int][]bool
	normA  map[int][]string // col → per-row normalized values
	normB  map[int][]string
	ids    map[corrKey]*idCols        // correspondence → encoded token sets
	docs   map[*simfn.Corpus]*docCols // corpus → IDF-weighted row vectors

	// feats[f.ID] caches the resolved per-feature column bundle so the
	// per-pair path does one atomic load instead of map lookups under
	// RLock.
	feats []atomic.Pointer[featCols]
}

type tokKey struct {
	col  int
	kind tokenize.Kind
}

// corrKey identifies one attribute correspondence's shared token
// dictionary: both columns' token sets are encoded under one
// frequency-ordered dictionary so IDs are comparable across tables.
type corrKey struct {
	acol, bcol int
	kind       tokenize.Kind
}

// idCols holds both sides of a correspondence as sorted token-ID sets,
// plus the shared dictionary they are encoded under (retained so the
// trained artifact can ship the correspondence frozen). pa/pb carry the
// same rows with bit-parallel signatures attached (the IDs slices are
// shared, not copied), packed once at column-build time so the per-pair
// kernels never pay packing cost.
type idCols struct {
	dict   *tokenize.Dict
	a, b   [][]uint32
	pa, pb []simfn.PackedIDs
}

// docCols holds both sides of a correspondence as frozen IDF-weighted
// term-frequency vectors, one per row, shared by every feature bound to
// the same corpus (the TF/IDF family of one correspondence).
type docCols struct {
	a, b []simfn.WeightedDoc
}

// featCols is the resolved, immutable column bundle one feature reads
// per pair. Only the fields for the feature's measure family are set.
type featCols struct {
	numA, numB   []float64
	okA, okB     []bool
	idsA, idsB   [][]uint32
	packA, packB []simfn.PackedIDs
	tokA, tokB   [][]string
	docA, docB   []simfn.WeightedDoc
	normA, normB []string
}

// NewVectorizer builds a vectorizer for the feature set over tables a and b.
func NewVectorizer(set *Set, a, b *table.Table) *Vectorizer {
	return &Vectorizer{
		Set: set, A: a, B: b,
		tokA: map[tokKey][][]string{}, tokB: map[tokKey][][]string{},
		numA: map[int][]float64{}, numB: map[int][]float64{},
		numOkA: map[int][]bool{}, numOkB: map[int][]bool{},
		normA: map[int][]string{}, normB: map[int][]string{},
		ids:   map[corrKey]*idCols{},
		docs:  map[*simfn.Corpus]*docCols{},
		feats: make([]atomic.Pointer[featCols], len(set.Features)),
	}
}

// tokenCol returns the fully-built token column for (col, kind), building it
// on first access. Once published the slice is never mutated again, so
// callers may read it without holding the lock.
func (v *Vectorizer) tokenCol(isA bool, col int, kind tokenize.Kind) [][]string {
	cache, t := v.tokA, v.A
	if !isA {
		cache, t = v.tokB, v.B
	}
	k := tokKey{col, kind}
	v.mu.RLock()
	rows, ok := cache[k]
	v.mu.RUnlock()
	if ok {
		return rows
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if rows, ok := cache[k]; ok {
		return rows
	}
	rows = make([][]string, t.Len())
	for row := range rows {
		val := t.Value(row, col)
		if table.IsMissing(val) {
			rows[row] = []string{}
		} else {
			rows[row] = tokenize.Set(kind, val)
		}
	}
	cache[k] = rows //falcon:allow streambound one token column per (column, kind) — bounded by the schema, not the record stream
	return rows
}

func (v *Vectorizer) tokens(isA bool, col int, kind tokenize.Kind, row int) []string {
	return v.tokenCol(isA, col, kind)[row]
}

// numberCol returns the fully-parsed numeric column, building it on first
// access; like tokenCol, published slices are immutable.
func (v *Vectorizer) numberCol(isA bool, col int) ([]float64, []bool) {
	nums, oks, t := v.numA, v.numOkA, v.A
	if !isA {
		nums, oks, t = v.numB, v.numOkB, v.B
	}
	v.mu.RLock()
	col2, ok := nums[col], oks[col]
	v.mu.RUnlock()
	if col2 != nil {
		return col2, ok
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if col2, ok := nums[col], oks[col]; col2 != nil {
		return col2, ok
	}
	col2 = make([]float64, t.Len())
	ok = make([]bool, t.Len())
	for r := 0; r < t.Len(); r++ {
		s := strings.TrimSpace(t.Value(r, col))
		if table.IsMissing(s) {
			continue
		}
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			col2[r], ok[r] = f, true
		}
	}
	nums[col], oks[col] = col2, ok //falcon:allow streambound one parsed column per table column — bounded by the schema, not the record stream
	return col2, ok
}

func (v *Vectorizer) number(isA bool, col, row int) (float64, bool) {
	col2, ok := v.numberCol(isA, col)
	return col2[row], ok[row]
}

// normCol returns the normalized string column: missing values become "",
// everything else is lowercased and trimmed — exactly the per-pair
// normalization the sequence measures previously applied on every call.
func (v *Vectorizer) normCol(isA bool, col int) []string {
	cache, t := v.normA, v.A
	if !isA {
		cache, t = v.normB, v.B
	}
	v.mu.RLock()
	rows, ok := cache[col]
	v.mu.RUnlock()
	if ok {
		return rows
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if rows, ok := cache[col]; ok {
		return rows
	}
	rows = make([]string, t.Len())
	for row := range rows {
		val := t.Value(row, col)
		if table.IsMissing(val) {
			continue
		}
		rows[row] = strings.ToLower(strings.TrimSpace(val))
	}
	cache[col] = rows //falcon:allow streambound one normalized column per table column — bounded by the schema, not the record stream
	return rows
}

// idCols returns both columns of the correspondence encoded as sorted
// token-ID sets under one shared frequency-ordered dictionary, building the
// dictionary and both encodings on first access.
func (v *Vectorizer) idColsFor(acol, bcol int, kind tokenize.Kind) *idCols {
	k := corrKey{acol, bcol, kind}
	v.mu.RLock()
	c, ok := v.ids[k]
	v.mu.RUnlock()
	if ok {
		return c
	}
	// Token columns are built outside v.mu (tokenCol locks internally).
	ta := v.tokenCol(true, acol, kind)
	tb := v.tokenCol(false, bcol, kind)
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.ids[k]; ok {
		return c
	}
	c = buildIDCols(ta, tb)
	v.ids[k] = c //falcon:allow streambound one encoding per correspondence — bounded by the feature set, not the record stream
	return c
}

// docColsFor returns both columns of f's correspondence as frozen
// IDF-weighted row vectors under f's corpus, building them on first
// access. TFIDF and SoftTFIDF features of one correspondence share a
// corpus, so they share one docCols.
func (v *Vectorizer) docColsFor(f *Feature) *docCols {
	v.mu.RLock()
	d, ok := v.docs[f.corpus]
	v.mu.RUnlock()
	if ok {
		return d
	}
	// Token columns are built outside v.mu (tokenCol locks internally).
	ta := v.tokenCol(true, f.ACol, f.Token)
	tb := v.tokenCol(false, f.BCol, f.Token)
	v.mu.Lock()
	defer v.mu.Unlock()
	if d, ok := v.docs[f.corpus]; ok {
		return d
	}
	d = &docCols{a: weightedDocs(f.corpus, ta), b: weightedDocs(f.corpus, tb)}
	v.docs[f.corpus] = d //falcon:allow streambound one weighted-doc pair per corpus — bounded by the feature set, not the record stream
	return d
}

// weightedDocs precomputes the frozen tf·idf vector of every row.
func weightedDocs(c *simfn.Corpus, rows [][]string) []simfn.WeightedDoc {
	out := make([]simfn.WeightedDoc, len(rows))
	for i, toks := range rows {
		out[i] = c.WeightedDocOf(toks)
	}
	return out
}

// buildIDCols interns both columns' tokens into one dictionary ordered by
// (frequency asc, token asc) — the same global ordering §7.5 uses — and
// encodes every row as a sorted ID set. Sorted-ascending ID sets are thus
// rank-reordered token sets, and the sorted-merge intersection visits
// rarest tokens first.
func buildIDCols(ta, tb [][]string) *idCols {
	freq := map[string]int{}
	for _, rows := range [2][][]string{ta, tb} {
		for _, toks := range rows {
			for _, t := range toks {
				freq[t]++
			}
		}
	}
	ranked := make([]string, 0, len(freq))
	for t := range freq {
		ranked = append(ranked, t)
	}
	slices.SortFunc(ranked, func(a, b string) int {
		if c := cmp.Compare(freq[a], freq[b]); c != 0 {
			return c
		}
		return strings.Compare(a, b)
	})
	dict := tokenize.DictOf(ranked)
	encode := func(rows [][]string) [][]uint32 {
		out := make([][]uint32, len(rows))
		for i, toks := range rows {
			if len(toks) == 0 {
				continue
			}
			ids := make([]uint32, len(toks))
			for j, t := range toks {
				id, _ := dict.ID(t)
				ids[j] = id
			}
			slices.Sort(ids)
			out[i] = ids
		}
		return out
	}
	pack := func(rows [][]uint32) []simfn.PackedIDs {
		out := make([]simfn.PackedIDs, len(rows))
		for i, ids := range rows {
			out[i] = simfn.PackIDs(ids)
		}
		return out
	}
	c := &idCols{dict: dict, a: encode(ta), b: encode(tb)}
	c.pa, c.pb = pack(c.a), pack(c.b)
	return c
}

// CorrIDs exposes one correspondence's shared frequency-ordered dictionary
// and both encoded columns, building them on first access. The artifact
// builder uses this to freeze the dictionary and B-row ID sets into the
// serving contract.
func (v *Vectorizer) CorrIDs(acol, bcol int, kind tokenize.Kind) (*tokenize.Dict, [][]uint32, [][]uint32) {
	c := v.idColsFor(acol, bcol, kind)
	return c.dict, c.a, c.b
}

// isCountSet reports whether the measure depends only on set sizes and
// overlap count, and can therefore run on encoded ID sets.
func isCountSet(m simfn.Measure) bool {
	switch m {
	case simfn.MJaccard, simfn.MDice, simfn.MOverlap, simfn.MCosine:
		return true
	}
	return false
}

// featData returns the feature's resolved column bundle, building and
// publishing it on first access. Features not belonging to v.Set (defensive
// case) are resolved without caching.
func (v *Vectorizer) featData(f *Feature) *featCols {
	cached := f.ID >= 0 && f.ID < len(v.feats) && &v.Set.Features[f.ID] == f
	if cached {
		if fc := v.feats[f.ID].Load(); fc != nil {
			return fc
		}
	}
	fc := &featCols{}
	switch {
	case f.Measure.NumericBased():
		fc.numA, fc.okA = v.numberCol(true, f.ACol)
		fc.numB, fc.okB = v.numberCol(false, f.BCol)
	case isCountSet(f.Measure):
		c := v.idColsFor(f.ACol, f.BCol, f.Token)
		fc.idsA, fc.idsB = c.a, c.b
		fc.packA, fc.packB = c.pa, c.pb
	case f.Measure.SetBased(): // Monge-Elkan, TF/IDF family: real tokens
		fc.tokA = v.tokenCol(true, f.ACol, f.Token)
		fc.tokB = v.tokenCol(false, f.BCol, f.Token)
		if f.Measure.CorpusBased() {
			d := v.docColsFor(f)
			fc.docA, fc.docB = d.a, d.b
		}
	default:
		fc.normA = v.normCol(true, f.ACol)
		fc.normB = v.normCol(false, f.BCol)
	}
	if cached {
		v.feats[f.ID].Store(fc)
	}
	return fc
}

// Vector computes the full feature vector for pair p.
func (v *Vectorizer) Vector(p table.Pair) Vector {
	s := simfn.GetScratch()
	out := v.vector(p, v.Set.Features, nil, s)
	simfn.PutScratch(s)
	return out
}

// VectorScratch is Vector with caller-provided simfn scratch, for hot loops
// that hold one scratch per worker or task.
//
//falcon:hotpath
func (v *Vectorizer) VectorScratch(p table.Pair, s *simfn.Scratch) Vector {
	return v.vector(p, v.Set.Features, nil, s)
}

// BlockingVector computes only the blocking-stage features for pair p. The
// returned Values are indexed by position in Set.BlockingIdx.
func (v *Vectorizer) BlockingVector(p table.Pair) Vector {
	s := simfn.GetScratch()
	out := v.vector(p, v.Set.Features, v.Set.BlockingIdx, s)
	simfn.PutScratch(s)
	return out
}

// BlockingVectorScratch is BlockingVector with caller-provided scratch.
// After Warm it performs exactly one allocation: the Values slice.
//
//falcon:hotpath
func (v *Vectorizer) BlockingVectorScratch(p table.Pair, s *simfn.Scratch) Vector {
	return v.vector(p, v.Set.Features, v.Set.BlockingIdx, s)
}

func (v *Vectorizer) vector(p table.Pair, feats []Feature, idx []int, s *simfn.Scratch) Vector {
	n := len(feats)
	if idx != nil {
		n = len(idx)
	}
	//falcon:allow servebudget the documented single Values allocation per vector
	out := Vector{Pair: p, Values: make([]float64, n)}
	for i := 0; i < n; i++ {
		f := &feats[i]
		if idx != nil {
			f = &feats[idx[i]]
		}
		out.Values[i] = v.evalCached(f, p, s)
	}
	return out
}

// EvalFeature computes one feature on pair p using the caches.
func (v *Vectorizer) EvalFeature(f *Feature, p table.Pair) float64 {
	s := simfn.GetScratch()
	out := v.evalCached(f, p, s)
	simfn.PutScratch(s)
	return out
}

// evalCached computes one feature on pair p from the published column
// bundles: an atomic Load of the frozen featCols, then pure arithmetic
// over pre-tokenized IDs and pre-normalized strings.
//
//falcon:hotpath
func (v *Vectorizer) evalCached(f *Feature, p table.Pair, s *simfn.Scratch) float64 {
	if v.Reference {
		//falcon:allow servebudget retired reference path, enabled only by golden equivalence tests, never when serving
		return v.evalReference(f, p)
	}
	//falcon:allow servebudget cold-path column build under the write lock; Warm() pre-builds every bundle so serving always takes the atomic Load fast path
	fc := v.featData(f)
	return v.evalWithCols(f, fc, p, s)
}

// evalWithCols is evalCached after bundle resolution: pure arithmetic over
// the frozen columns. Split out so batch entry points can hoist the featData
// loads out of their per-pair loops.
//
//falcon:hotpath
func (v *Vectorizer) evalWithCols(f *Feature, fc *featCols, p table.Pair, s *simfn.Scratch) float64 {
	switch {
	case f.Measure.NumericBased():
		if !fc.okA[p.A] || !fc.okB[p.B] {
			return Missing
		}
		if f.Measure == simfn.MAbsDiff {
			return simfn.AbsDiff(fc.numA[p.A], fc.numB[p.B])
		}
		return simfn.RelDiff(fc.numA[p.A], fc.numB[p.B])
	case isCountSet(f.Measure):
		if v.IDsOnly {
			return evalSetIDs(f.Measure, fc.idsA[p.A], fc.idsB[p.B])
		}
		return EvalCountSetPacked(f.Measure, &fc.packA[p.A], &fc.packB[p.B])
	case f.Measure == simfn.MMongeElkan:
		return s.MongeElkan(fc.tokA[p.A], fc.tokB[p.B])
	case f.Measure.CorpusBased():
		if f.Measure == simfn.MTFIDF {
			return simfn.TFIDFDocs(&fc.docA[p.A], &fc.docB[p.B])
		}
		return simfn.SoftTFIDFDocs(&fc.docA[p.A], &fc.docB[p.B], s)
	default:
		return f.evalStringsScratch(fc.normA[p.A], fc.normB[p.B], s)
	}
}

// evalReference is the retired per-pair path, kept verbatim for the golden
// equivalence tests: string token sets through the allocating simfn set
// measures, and per-pair normalization for the sequence measures.
func (v *Vectorizer) evalReference(f *Feature, p table.Pair) float64 {
	switch {
	case f.Measure.NumericBased():
		x, okx := v.number(true, f.ACol, p.A)
		y, oky := v.number(false, f.BCol, p.B)
		if !okx || !oky {
			return Missing
		}
		if f.Measure == simfn.MAbsDiff {
			return simfn.AbsDiff(x, y)
		}
		return simfn.RelDiff(x, y)
	case f.Measure.SetBased():
		ta := v.tokens(true, f.ACol, f.Token, p.A)
		tb := v.tokens(false, f.BCol, f.Token, p.B)
		return f.evalSets(ta, tb)
	default:
		av := v.A.Value(p.A, f.ACol)
		bv := v.B.Value(p.B, f.BCol)
		if table.IsMissing(av) {
			av = ""
		}
		if table.IsMissing(bv) {
			bv = ""
		}
		return f.evalStrings(strings.ToLower(strings.TrimSpace(av)), strings.ToLower(strings.TrimSpace(bv)))
	}
}

// Warm pre-builds every column cache the feature set can touch — including
// the per-feature resolved bundles — so that subsequent concurrent
// evaluation never takes the write lock and the per-pair path is
// allocation-free (modulo the returned Values).
func (v *Vectorizer) Warm() {
	for i := range v.Set.Features {
		f := &v.Set.Features[i]
		v.featData(f)
		// The reference path additionally reads raw token columns for all
		// set measures; featData covers them for every family except the
		// count-set measures, whose bundle holds only encoded IDs.
		if isCountSet(f.Measure) {
			v.tokenCol(true, f.ACol, f.Token)
			v.tokenCol(false, f.BCol, f.Token)
		}
	}
}

// EvalRank orders measure families by per-pair cost, the order on-demand
// rule checks read features in: numeric distances (0) < exact match (1) <
// count-set measures over packed IDs (2) < every other measure (3).
func EvalRank(m simfn.Measure) int {
	switch {
	case m.NumericBased():
		return 0
	case m == simfn.MExactMatch:
		return 1
	case isCountSet(m):
		return 2
	default:
		return 3
	}
}

// PairEval evaluates one pair's features on demand. Value(i) computes the
// feature at position i of the evaluator's space the first time a CNF
// predicate or a tree node reads it, and returns the remembered value on
// every later read until Reset moves to the next pair. A decision that
// never reads a feature never computes it. Values are bit-identical to
// Vector's: the same column bundles, the same kernels, and the Reference
// and IDsOnly routing of the vectorizer it came from.
//
// Take one per task or key group with Vectorizer.Eval and give it back
// with Release; it is not safe for concurrent use.
type PairEval struct {
	v     *Vectorizer
	space []int       // position → Set.Features index; nil is the identity
	cols  []*featCols // per position, resolved on first read
	vals  []float64
	stamp []uint32 // vals[i] belongs to the current pair iff stamp[i] == gen
	gen   uint32
	p     table.Pair
	s     simfn.Scratch

	computed int // feature computations since Eval
}

var evalPool = sync.Pool{New: func() any { return new(PairEval) }}

// Eval returns a pooled on-demand evaluator over a feature space: space
// maps positions to Set.Features indexes (Set.BlockingIdx for the
// blocking vector), and nil means the full feature space. Call Reset before
// the first Value.
func (v *Vectorizer) Eval(space []int) *PairEval {
	n := len(v.Set.Features)
	if space != nil {
		n = len(space)
	}
	e := evalPool.Get().(*PairEval)
	e.v, e.space, e.computed = v, space, 0
	if cap(e.vals) < n {
		e.cols, e.vals, e.stamp = make([]*featCols, n), make([]float64, n), make([]uint32, n)
	}
	// gen only grows, so stamps left by an earlier use never match the
	// next Reset's generation.
	e.cols, e.vals, e.stamp = e.cols[:n], e.vals[:n], e.stamp[:n]
	return e
}

// Release returns the evaluator to the pool, dropping its column
// references; e must not be used after.
func (e *PairEval) Release() {
	e.v, e.space = nil, nil
	clear(e.cols)
	evalPool.Put(e)
}

// Reset moves the evaluator to pair p, forgetting the previous pair's
// values in O(1), and returns e.
func (e *PairEval) Reset(p table.Pair) *PairEval {
	e.p = p
	e.gen++
	if e.gen == 0 {
		clear(e.stamp[:cap(e.stamp)])
		e.gen = 1
	}
	return e
}

// Value returns the feature at position i for the current pair, computing
// it on first read.
func (e *PairEval) Value(i int) float64 {
	if e.stamp[i] == e.gen {
		return e.vals[i]
	}
	f := &e.v.Set.Features[i]
	if e.space != nil {
		f = &e.v.Set.Features[e.space[i]]
	}
	var x float64
	if e.v.Reference {
		x = e.v.evalReference(f, e.p)
	} else {
		fc := e.cols[i]
		if fc == nil {
			fc = e.v.featData(f)
			e.cols[i] = fc
		}
		x = e.v.evalWithCols(f, fc, e.p, &e.s)
	}
	e.vals[i], e.stamp[i] = x, e.gen
	e.computed++
	return x
}

// VectorizeAll converts a pair list into vectors (full feature space).
func (v *Vectorizer) VectorizeAll(pairs []table.Pair) []Vector {
	s := simfn.GetScratch()
	out := make([]Vector, len(pairs))
	for i, p := range pairs {
		out[i] = v.vector(p, v.Set.Features, nil, s)
	}
	simfn.PutScratch(s)
	return out
}

// BlockingVectorizeAll converts a pair list into blocking-feature vectors.
func (v *Vectorizer) BlockingVectorizeAll(pairs []table.Pair) []Vector {
	s := simfn.GetScratch()
	out := make([]Vector, len(pairs))
	for i, p := range pairs {
		out[i] = v.vector(p, v.Set.Features, v.Set.BlockingIdx, s)
	}
	simfn.PutScratch(s)
	return out
}
