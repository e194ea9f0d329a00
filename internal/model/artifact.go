package model

import (
	"fmt"
	"maps"

	"falcon/internal/filters"
	"falcon/internal/index"
	"falcon/internal/rules"
	"falcon/internal/simfn"
	"falcon/internal/table"
	"falcon/internal/tokenize"
)

// ArtifactVersion is bumped on breaking changes to the artifact layout, the
// one serialized form of a learned model. Version 2 grew the artifact from
// rules/forest/dicts into the complete serving contract: feature specs,
// corpora, the frozen B table, per-correspondence B-row ID sets, and the
// prefix-index postings over B.
const ArtifactVersion = 2

// FeatureSpec is one feature's serialized definition. Together with the
// corpora it reconstructs the exact feature space the model was trained
// on, so a served record is vectorized bit-identically to a batch row.
type FeatureSpec struct {
	Name      string
	Measure   simfn.Measure
	Token     tokenize.Kind
	ACol      int
	BCol      int
	Attr      string
	Blockable bool
	// Corpus indexes MatcherArtifact.Corpora, or -1 when the measure is
	// not corpus-based.
	Corpus int
}

// CorpusData is one TF/IDF corpus in serializable form (see
// simfn.Corpus.State): document count plus per-token document frequencies
// with tokens in lexicographic order.
type CorpusData struct {
	Docs int
	Toks []string
	DFs  []int
}

// CorrData freezes one attribute correspondence's dictionary-encoded
// state: the shared frequency-ordered dictionary as its ranked token list,
// and every B row's sorted token-ID set under it. The serving path encodes
// the incoming record under the same dictionary (unknown tokens get
// distinct extension IDs ≥ the dictionary length, matching nothing), so
// count-set measures reproduce the batch values exactly.
type CorrData struct {
	ACol   int
	BCol   int
	Kind   tokenize.Kind
	Ranked []string
	RowsB  [][]uint32
}

// CorrKey names a correspondence's dictionary in MatcherArtifact.Dicts.
func CorrKey(acol, bcol int, kind tokenize.Kind) string {
	return fmt.Sprintf("%d/%d/%s", acol, bcol, kind)
}

// PrefixData is one serialized prefix index over a column of the frozen B
// table. The batch pipeline indexes A and probes with rows of B; serving
// flips the roles, which is sound because every filterable set measure is
// symmetric in its two arguments. BCol is the indexed B column.
type PrefixData struct {
	Kind      filters.Kind
	BCol      int
	Token     tokenize.Kind
	Measure   simfn.Measure
	Threshold float64
	Ranked    []string
	Post      [][]index.Posting
	SetLen    []int32
}

// Spec returns the filter-index spec this data answers, with the indexed
// column in the spec's ACol slot (specs name the indexed table's column).
func (p *PrefixData) Spec() filters.IndexSpec {
	return filters.IndexSpec{Kind: p.Kind, ACol: p.BCol, Token: p.Token, Measure: p.Measure, Threshold: p.Threshold}
}

// ServingData collects the serving-side state the train phase assembles —
// a plain mutable builder, handed whole to NewMatcherArtifact so every
// artifact field is set inside the frozen constructor.
type ServingData struct {
	Feats   []FeatureSpec
	Corpora []CorpusData
	AName   string
	AAttrs  []table.Attribute
	B       *table.Table
	Corrs   []CorrData
	Prefix  []PrefixData
	Dicts   map[string]*tokenize.Dict
}

// MatcherArtifact is the frozen serving contract: everything the
// point-match path (POST /match/one) reads per request, assembled once at
// train or load time and published through an atomic pointer. Readers take
// no lock, so nothing reachable from an artifact may ever be written after
// construction — the //falcon:frozen directive on NewMatcherArtifact puts
// every call site under the immutpublish analyzer, and a model swap
// replaces the whole artifact (clone-then-swap), never patches one in
// place.
//
// The embedded Model is the learned half; its Bind, Apply and ApplyContext
// are the batch apply half of the train/serve split.
type MatcherArtifact struct {
	// Version is the artifact layout version (ArtifactVersion).
	Version int
	Model
	// Dicts references the frequency-ordered token dictionaries, keyed by
	// CorrKey, so probe values can be ID-encoded for the allocation-free
	// ProbeIDs path. Rebuilt from Corrs on Load.
	Dicts map[string]*tokenize.Dict

	// Serving payload (nil/empty on model-only artifacts: the interim ones
	// the batch path builds mid-run, where A, B, and the vectorizer are
	// still live, and the exported model of falcon.Report.Model).
	Feats   []FeatureSpec
	Corpora []CorpusData
	AName   string
	AAttrs  []table.Attribute
	B       *table.Table
	Corrs   []CorrData
	Prefix  []PrefixData
}

// NewMatcherArtifact assembles the serving artifact from a trained model
// and the serving-side state the train phase froze (sv may be nil for
// model-only artifacts). Slice spines and the dictionary map are copied, so
// later mutation of the inputs cannot reach the artifact; the forest,
// dictionaries, B table, ID sets, and postings are shared (all immutable
// once built).
//
//falcon:frozen
func NewMatcherArtifact(m *Model, sv *ServingData) *MatcherArtifact {
	a := &MatcherArtifact{Version: ArtifactVersion, Model: *m}
	a.FeatureNames = append([]string(nil), m.FeatureNames...)
	a.BlockingIdx = append([]int(nil), m.BlockingIdx...)
	a.RuleSeq = append([]rules.Rule(nil), m.RuleSeq...)
	a.ClauseSel = append([]float64(nil), m.ClauseSel...)
	if sv != nil {
		a.Dicts = maps.Clone(sv.Dicts)
		a.Feats = append([]FeatureSpec(nil), sv.Feats...)
		a.Corpora = append([]CorpusData(nil), sv.Corpora...)
		a.AName = sv.AName
		a.AAttrs = append([]table.Attribute(nil), sv.AAttrs...)
		a.B = sv.B
		a.Corrs = append([]CorrData(nil), sv.Corrs...)
		a.Prefix = append([]PrefixData(nil), sv.Prefix...)
	}
	return a
}

// TrainedModel returns the artifact's learned model. It shares the
// artifact's slices and forest; callers treat it as read-only.
func (a *MatcherArtifact) TrainedModel() *Model { return &a.Model }
