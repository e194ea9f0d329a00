package serve

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"falcon/internal/feature"
	"falcon/internal/filters"
	"falcon/internal/simfn"
	"falcon/internal/table"
	"falcon/internal/tokenize"
)

// Match is one served match: a row of the frozen B table and the forest's
// confidence (fraction of trees voting match).
type Match struct {
	BRow  int     `json:"b_row"`
	Score float64 `json:"score"`
}

// reqScratch is one request's working state, cycled through Bundle.scratch.
// Slices are reused via [:0] re-slicing; capacities grow to the workload's
// high-water mark and stick.
type reqScratch struct {
	bn     *Bundle             // the bundle whose pool owns this scratch
	num    []float64           // per feature: parsed record numeric
	numOk  []bool              // per feature: numeric parse success
	ids    [][]uint32          // per feature: encoded record token-ID set
	pack   []simfn.PackedIDs   // per feature: ids with signature attached
	docs   []simfn.WeightedDoc // per feature: record weighted document
	norm   []string            // per feature: normalized record string
	toks   [][]string          // per token slot: record token set
	pids   [][]uint32          // per probe slot: probe-encoded IDs (prefix kinds)
	pcands [][]int32           // per probe slot: probe result buffer

	// The current row's memo: vals[fi] holds feature fi for row iff
	// stamp[fi] == gen. scoreRow bumps gen per row, so moving to the next
	// row forgets every value without touching the slices.
	vals  []float64
	stamp []uint32
	gen   uint32
	row   int
	sim   simfn.Scratch

	union []int32 // clause-union double buffer
	utmp  []int32
	out   []Match
}

// MatchOne matches one incoming A-shaped record (values in A-schema column
// order) against the frozen B table: candidate generation probes the filter
// indexes of the learned CNF's most selective clause, then each candidate
// is checked against the whole CNF and scored by the forest, computing a
// feature only when a predicate or a tree node first reads it. Lock-free:
// all shared state is the frozen bundle; per-request state comes from the
// scratch pool. The documented per-request allocations are the record
// tokenizations and the returned match slice; probe results land in pooled
// per-slot buffers.
//
//falcon:hotpath
func (bn *Bundle) MatchOne(rec []string) ([]Match, error) {
	if len(rec) != bn.nA {
		return nil, fmt.Errorf("serve: record has %d values, schema has %d", len(rec), bn.nA)
	}
	rs := bn.scratch.Get().(*reqScratch)
	bn.prepare(rs, rec)
	cands, all := bn.candidates(rs, rec)
	rs.out = rs.out[:0]
	if all {
		for row := 0; row < bn.b.Len(); row++ {
			bn.scoreRow(rs, row)
		}
	} else {
		for _, row := range cands {
			bn.scoreRow(rs, int(row))
		}
	}
	out := append([]Match(nil), rs.out...)
	bn.scratch.Put(rs)
	return out, nil
}

// prepare computes the record's per-feature operands — the request-side
// twin of the vectorizer's frozen A columns: token sets per (column,
// scheme) slot, encoded ID sets under the correspondence dictionaries,
// parsed numerics, weighted documents, normalized strings, and the
// ordering-encoded probe sets for the prefix predicates.
//
//falcon:hotpath
func (bn *Bundle) prepare(rs *reqScratch, rec []string) {
	for si := range bn.tokSlots {
		ts := &bn.tokSlots[si]
		val := rec[ts.acol]
		if table.IsMissing(val) {
			rs.toks[si] = rs.toks[si][:0]
			continue
		}
		//falcon:allow servebudget documented per-request tokenization of the incoming record
		rs.toks[si] = tokenize.Set(ts.kind, val)
	}
	for fi := range bn.feats {
		fc := &bn.feats[fi]
		switch {
		case fc.measure.NumericBased():
			rs.numOk[fi] = false
			v := strings.TrimSpace(rec[fc.acol])
			if table.IsMissing(v) {
				continue
			}
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				rs.num[fi], rs.numOk[fi] = f, true
			}
		case fc.dict != nil: // count-set: encode under the frozen dictionary
			toks := rs.toks[fc.tokSlot]
			ids := rs.ids[fi][:0]
			ext := uint32(fc.dict.Len())
			for _, t := range toks {
				if id, known := fc.dict.ID(t); known {
					ids = append(ids, id)
				} else {
					// Distinct extension IDs ≥ Len: the dictionary covers every
					// B token, so unknowns overlap nothing, as in training.
					ids = append(ids, ext)
					ext++
				}
			}
			slices.Sort(ids)
			rs.ids[fi] = ids
			rs.pack[fi].Repack(ids)
		case fc.corpus != nil:
			//falcon:allow servebudget documented per-request weighted-document build over the frozen corpus
			rs.docs[fi] = fc.corpus.WeightedDocOf(rs.toks[fc.tokSlot])
		case fc.measure.SetBased():
			// Monge-Elkan reads the token slot directly.
		default:
			val := rec[fc.acol]
			if table.IsMissing(val) {
				rs.norm[fi] = ""
			} else {
				rs.norm[fi] = strings.ToLower(strings.TrimSpace(val))
			}
		}
	}
	for pi := range bn.probe {
		pp := &bn.probe[pi]
		if pp.prefix == nil {
			continue
		}
		// Raw values are tokenized as-is (no missing check), matching the
		// batch probe path; missing tokenizes to the empty set anyway.
		//falcon:allow servebudget documented per-request tokenization for the prefix probe
		toks := tokenize.Set(pp.prefix.Kind, rec[pp.acol])
		ids := rs.pids[pp.slot][:0]
		dict := pp.ord.Dict()
		ext := uint32(pp.ord.Len())
		for _, t := range toks {
			if id, known := dict.ID(t); known {
				ids = append(ids, id)
			} else {
				ids = append(ids, ext)
				ext++
			}
		}
		slices.Sort(ids)
		rs.pids[pp.slot] = ids
	}
}

// candidates is Algorithm 1's FindProbableCandidates with the roles
// flipped: the record probes the B-side indexes of the one clause the
// bundle probes (the filterable clause with the lowest ClauseSel), and
// scoreRow verifies every clause on the survivors. all=true means nothing
// can prune this record (including the empty, matcher-only CNF) and every
// B row is a candidate. Results are sorted ascending.
//
//falcon:hotpath
func (bn *Bundle) candidates(rs *reqScratch, rec []string) (cands []int32, all bool) {
	if bn.probe == nil {
		return nil, true
	}
	var acc []int32
	for pi := range bn.probe {
		got, isAll := bn.predCands(rs, &bn.probe[pi], rec)
		if isAll {
			return nil, true
		}
		if pi == 0 {
			acc = got
			continue
		}
		// The clause is a disjunction: union its predicates' candidates,
		// alternating buffers so the destination never aliases acc.
		buf := rs.utmp
		if pi%2 == 0 {
			buf = rs.union
		}
		buf = unionInto(buf[:0], acc, got)
		if pi%2 == 0 {
			rs.union = buf
		} else {
			rs.utmp = buf
		}
		acc = buf
	}
	return acc, false
}

// predCands returns the B rows that may satisfy one CNF predicate for this
// record — the serving twin of Indexes.PredCandidates with probe roles
// flipped. all=true means the filter cannot prune for this probe.
//
//falcon:hotpath
func (bn *Bundle) predCands(rs *reqScratch, pp *predPlan, rec []string) (cands []int32, all bool) {
	switch pp.kind {
	case filters.Equivalence:
		return pp.hash.Probe(rec[pp.acol]), false
	case filters.Range:
		if !rs.numOk[pp.feat] {
			// Feature value is Missing for every B row; prune nothing when the
			// keep predicate accepts Missing, everything otherwise.
			return nil, pp.pred.Eval(feature.Missing)
		}
		lo, hi := filters.RangeBounds(pp.measure, rs.num[pp.feat], pp.threshold)
		got := pp.tree.ProbeRangeInto(lo, hi, rs.pcands[pp.slot])
		if pp.pred.Eval(feature.Missing) {
			// B-side unparseables also evaluate to Missing → keep.
			got = append(got, pp.tree.Unparseable()...)
		}
		slices.Sort(got)
		rs.pcands[pp.slot] = got
		return got, false
	default: // PrefixSet, ShareGram
		got, _ := pp.prefix.ProbeIDsInto(pp.measure, pp.threshold, rs.pids[pp.slot], rs.pcands[pp.slot][:0])
		rs.pcands[pp.slot] = got
		return got, false
	}
}

// scoreRow checks one candidate B row against the CNF, then scores it with
// the forest, appending a Match when the forest votes yes. Both read
// features through the row's memo (Value), so a feature shared by clauses
// and trees is computed once and a feature nothing reads is never
// computed.
//
//falcon:hotpath
func (bn *Bundle) scoreRow(rs *reqScratch, row int) {
	rs.row = row
	rs.gen++
	if rs.gen == 0 {
		clear(rs.stamp)
		rs.gen = 1
	}
	if !bn.verify.KeepOn(rs) {
		return
	}
	votes := bn.f.VotesOn(rs)
	if bn.f.Majority(votes) {
		rs.out = append(rs.out, Match{BRow: row, Score: bn.f.Fraction(votes)})
	}
}

// Value returns full-space feature fi between the prepared record and the
// current row, computing it on first read.
//
//falcon:hotpath
func (rs *reqScratch) Value(fi int) float64 {
	if rs.stamp[fi] == rs.gen {
		return rs.vals[fi]
	}
	x := rs.bn.evalFeature(fi, rs, &rs.sim, rs.row)
	rs.vals[fi], rs.stamp[fi] = x, rs.gen
	return x
}

// evalFeature computes one feature between the prepared record and B row —
// the serving twin of the vectorizer's evalCached, over the same frozen
// B-side operands, so values are bit-identical to the batch path's.
//
//falcon:hotpath
func (bn *Bundle) evalFeature(fi int, rs *reqScratch, s *simfn.Scratch, row int) float64 {
	fc := &bn.feats[fi]
	switch {
	case fc.measure.NumericBased():
		if !rs.numOk[fi] || !fc.okB[row] {
			return feature.Missing
		}
		if fc.measure == simfn.MAbsDiff {
			return simfn.AbsDiff(rs.num[fi], fc.numB[row])
		}
		return simfn.RelDiff(rs.num[fi], fc.numB[row])
	case fc.dict != nil:
		return feature.EvalCountSetPacked(fc.measure, &rs.pack[fi], &fc.packB[row])
	case fc.measure == simfn.MMongeElkan:
		return s.MongeElkan(rs.toks[fc.tokSlot], fc.tokB[row])
	case fc.measure.CorpusBased():
		if fc.measure == simfn.MTFIDF {
			return simfn.TFIDFDocs(&rs.docs[fi], &fc.docB[row])
		}
		return simfn.SoftTFIDFDocs(&rs.docs[fi], &fc.docB[row], s)
	default:
		return feature.EvalStrings(fc.measure, rs.norm[fi], fc.normB[row], s)
	}
}

// unionInto merges two sorted ID lists into dst (sorted, de-duplicated).
func unionInto(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}
