// Binary serialization for MatcherArtifact: a magic header, the layout
// version, a content checksum, and a deterministic payload.
//
// The payload encodes only slices (never map iterations) and stores floats
// as their IEEE-754 bit patterns, so Save(Load(Save(a))) is byte-identical
// to Save(a) and every similarity weight round-trips bit-for-bit. Maps
// (Dicts) and derived state are rebuilt on Load.
package model

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"falcon/internal/filters"
	"falcon/internal/forest"
	"falcon/internal/index"
	"falcon/internal/rules"
	"falcon/internal/simfn"
	"falcon/internal/table"
	"falcon/internal/tokenize"
)

// artifactMagic identifies a serialized MatcherArtifact file.
const artifactMagic = "FALCNART"

// encoder accumulates the payload in one growable buffer.
type encoder struct {
	buf []byte
}

func (e *encoder) u(v uint64)  { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) i(v int)     { e.buf = binary.AppendVarint(e.buf, int64(v)) }
func (e *encoder) f(v float64) { e.buf = binary.BigEndian.AppendUint64(e.buf, math.Float64bits(v)) }
func (e *encoder) s(v string)  { e.u(uint64(len(v))); e.buf = append(e.buf, v...) }
func (e *encoder) b(v bool) {
	var x byte
	if v {
		x = 1
	}
	e.buf = append(e.buf, x)
}

func (e *encoder) strs(vs []string) {
	e.u(uint64(len(vs)))
	for _, v := range vs {
		e.s(v)
	}
}

func (e *encoder) ints(vs []int) {
	e.u(uint64(len(vs)))
	for _, v := range vs {
		e.i(v)
	}
}

func (e *encoder) f64s(vs []float64) {
	e.u(uint64(len(vs)))
	for _, v := range vs {
		e.f(v)
	}
}

func (e *encoder) u32s(vs []uint32) {
	e.u(uint64(len(vs)))
	for _, v := range vs {
		e.u(uint64(v))
	}
}

// decoder is a sticky-error reader over the whole payload; every primitive
// bounds-checks against the buffer so truncated input surfaces as an error
// instead of a panic.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("model: artifact truncated at offset %d", d.off)
	}
}

func (d *decoder) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) i() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return int(v)
}

func (d *decoder) f() float64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

func (d *decoder) s() string {
	n := d.n()
	if d.err != nil || d.off+n > len(d.b) {
		d.fail()
		return ""
	}
	v := string(d.b[d.off : d.off+n])
	d.off += n
	return v
}

func (d *decoder) b1() bool {
	if d.err != nil || d.off >= len(d.b) {
		d.fail()
		return false
	}
	v := d.b[d.off]
	d.off++
	return v != 0
}

// n decodes a length, rejecting counts larger than the remaining bytes
// (every encoded element occupies at least one byte), so corrupt input
// cannot trigger huge allocations before the mismatch is noticed.
func (d *decoder) n() int {
	v := d.u()
	if d.err != nil {
		return 0
	}
	if v > uint64(len(d.b)-d.off) {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *decoder) strs() []string {
	n := d.n()
	if d.err != nil {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.s()
	}
	return out
}

func (d *decoder) ints() []int {
	n := d.n()
	if d.err != nil {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.i()
	}
	return out
}

func (d *decoder) f64s() []float64 {
	n := d.n()
	if d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f()
	}
	return out
}

func (d *decoder) u32s() []uint32 {
	n := d.n()
	if d.err != nil {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(d.u())
	}
	return out
}

// Save writes the artifact in the versioned binary format: magic, layout
// version, SHA-256 of the payload, payload.
func (a *MatcherArtifact) Save(w io.Writer) error {
	if a.Version != ArtifactVersion {
		return fmt.Errorf("model: cannot save artifact layout version %d (current %d)", a.Version, ArtifactVersion)
	}
	var e encoder
	a.encodePayload(&e)
	sum := sha256.Sum256(e.buf)
	var hdr []byte
	hdr = append(hdr, artifactMagic...)
	hdr = binary.AppendUvarint(hdr, uint64(a.Version))
	hdr = append(hdr, sum[:]...)
	if _, err := w.Write(hdr); err != nil {
		return fmt.Errorf("model: writing artifact header: %w", err)
	}
	if _, err := w.Write(e.buf); err != nil {
		return fmt.Errorf("model: writing artifact payload: %w", err)
	}
	return nil
}

// SaveModel writes the model-only artifact: the learned model in the Save
// format with an empty serving payload. It is the exported form of a
// learned model; LoadArtifact reads it back.
func (a *MatcherArtifact) SaveModel(w io.Writer) error {
	return NewMatcherArtifact(&a.Model, nil).Save(w)
}

// LoadArtifact reads an artifact written by Save, verifying the magic, the
// layout version, the payload checksum, and the learned model's internal
// references, and rebuilding the derived in-memory state (the
// correspondence dictionaries). It is the one decoder of a learned model.
func LoadArtifact(r io.Reader) (*MatcherArtifact, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("model: reading artifact: %w", err)
	}
	if len(raw) < len(artifactMagic) || string(raw[:len(artifactMagic)]) != artifactMagic {
		return nil, fmt.Errorf("model: not an artifact file (bad magic)")
	}
	rest := raw[len(artifactMagic):]
	ver, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, fmt.Errorf("model: artifact truncated in header")
	}
	if ver != ArtifactVersion {
		return nil, fmt.Errorf("model: artifact layout version %d unsupported (want %d)", ver, ArtifactVersion)
	}
	rest = rest[n:]
	if len(rest) < sha256.Size {
		return nil, fmt.Errorf("model: artifact truncated in header")
	}
	want := rest[:sha256.Size]
	payload := rest[sha256.Size:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], want) {
		return nil, fmt.Errorf("model: artifact checksum mismatch")
	}
	d := &decoder{b: payload}
	a := decodePayload(d)
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("model: artifact has %d trailing bytes", len(d.b)-d.off)
	}
	if err := a.validate(); err != nil {
		return nil, err
	}
	a.Version = int(ver)
	a.Dicts = make(map[string]*tokenize.Dict, len(a.Corrs))
	for i := range a.Corrs {
		c := &a.Corrs[i]
		a.Dicts[CorrKey(c.ACol, c.BCol, c.Kind)] = tokenize.DictOf(c.Ranked)
	}
	return a, nil
}

func (a *MatcherArtifact) encodePayload(e *encoder) {
	e.strs(a.FeatureNames)
	e.ints(a.BlockingIdx)
	e.u(uint64(len(a.RuleSeq)))
	for i := range a.RuleSeq {
		r := &a.RuleSeq[i]
		e.i(r.ID)
		e.u(uint64(len(r.Preds)))
		for _, p := range r.Preds {
			e.i(p.Feature)
			e.i(int(p.Op))
			e.f(p.Value)
		}
	}
	e.f64s(a.ClauseSel)
	encodeForest(e, a.Matcher)

	e.u(uint64(len(a.Feats)))
	for i := range a.Feats {
		f := &a.Feats[i]
		e.s(f.Name)
		e.i(int(f.Measure))
		e.s(string(f.Token))
		e.i(f.ACol)
		e.i(f.BCol)
		e.s(f.Attr)
		e.b(f.Blockable)
		e.i(f.Corpus)
	}
	e.u(uint64(len(a.Corpora)))
	for i := range a.Corpora {
		c := &a.Corpora[i]
		e.i(c.Docs)
		e.strs(c.Toks)
		e.ints(c.DFs)
	}
	e.s(a.AName)
	encodeAttrs(e, a.AAttrs)
	encodeTable(e, a.B)
	e.u(uint64(len(a.Corrs)))
	for i := range a.Corrs {
		c := &a.Corrs[i]
		e.i(c.ACol)
		e.i(c.BCol)
		e.s(string(c.Kind))
		e.strs(c.Ranked)
		e.u(uint64(len(c.RowsB)))
		for _, row := range c.RowsB {
			e.u32s(row)
		}
	}
	e.u(uint64(len(a.Prefix)))
	for i := range a.Prefix {
		p := &a.Prefix[i]
		e.i(int(p.Kind))
		e.i(p.BCol)
		e.s(string(p.Token))
		e.i(int(p.Measure))
		e.f(p.Threshold)
		e.strs(p.Ranked)
		e.u(uint64(len(p.Post)))
		for _, plist := range p.Post {
			e.u(uint64(len(plist)))
			for _, pst := range plist {
				e.u(uint64(pst.ID))
				e.u(uint64(pst.Pos))
			}
		}
		e.u(uint64(len(p.SetLen)))
		for _, l := range p.SetLen {
			e.u(uint64(l))
		}
	}
}

func decodePayload(d *decoder) *MatcherArtifact {
	a := &MatcherArtifact{}
	a.FeatureNames = d.strs()
	a.BlockingIdx = d.ints()
	nr := d.n()
	if nr > 0 {
		a.RuleSeq = make([]rules.Rule, nr)
	}
	for i := 0; i < nr && d.err == nil; i++ {
		r := &a.RuleSeq[i]
		r.ID = d.i()
		np := d.n()
		if np > 0 {
			r.Preds = make([]rules.Predicate, np)
		}
		for j := 0; j < np && d.err == nil; j++ {
			r.Preds[j] = rules.Predicate{Feature: d.i(), Op: rules.Op(d.i()), Value: d.f()}
		}
	}
	a.ClauseSel = d.f64s()
	a.Matcher = decodeForest(d)

	nf := d.n()
	if nf > 0 {
		a.Feats = make([]FeatureSpec, nf)
	}
	for i := 0; i < nf && d.err == nil; i++ {
		f := &a.Feats[i]
		f.Name = d.s()
		f.Measure = simfn.Measure(d.i())
		f.Token = tokenize.Kind(d.s())
		f.ACol = d.i()
		f.BCol = d.i()
		f.Attr = d.s()
		f.Blockable = d.b1()
		f.Corpus = d.i()
	}
	nc := d.n()
	if nc > 0 {
		a.Corpora = make([]CorpusData, nc)
	}
	for i := 0; i < nc && d.err == nil; i++ {
		c := &a.Corpora[i]
		c.Docs = d.i()
		c.Toks = d.strs()
		c.DFs = d.ints()
	}
	a.AName = d.s()
	a.AAttrs = decodeAttrs(d)
	a.B = decodeTable(d)
	ncorr := d.n()
	if ncorr > 0 {
		a.Corrs = make([]CorrData, ncorr)
	}
	for i := 0; i < ncorr && d.err == nil; i++ {
		c := &a.Corrs[i]
		c.ACol = d.i()
		c.BCol = d.i()
		c.Kind = tokenize.Kind(d.s())
		c.Ranked = d.strs()
		nrows := d.n()
		if nrows > 0 {
			c.RowsB = make([][]uint32, nrows)
		}
		for j := 0; j < nrows && d.err == nil; j++ {
			c.RowsB[j] = d.u32s()
		}
	}
	npx := d.n()
	if npx > 0 {
		a.Prefix = make([]PrefixData, npx)
	}
	for i := 0; i < npx && d.err == nil; i++ {
		p := &a.Prefix[i]
		p.Kind = filters.Kind(d.i())
		p.BCol = d.i()
		p.Token = tokenize.Kind(d.s())
		p.Measure = simfn.Measure(d.i())
		p.Threshold = d.f()
		p.Ranked = d.strs()
		nrank := d.n()
		if nrank > 0 {
			p.Post = make([][]index.Posting, nrank)
		}
		for j := 0; j < nrank && d.err == nil; j++ {
			nps := d.n()
			if nps == 0 {
				continue
			}
			plist := make([]index.Posting, nps)
			for k := 0; k < nps && d.err == nil; k++ {
				plist[k] = index.Posting{ID: int32(d.u()), Pos: int32(d.u())}
			}
			p.Post[j] = plist
		}
		nl := d.n()
		if nl > 0 {
			p.SetLen = make([]int32, nl)
		}
		for j := 0; j < nl && d.err == nil; j++ {
			p.SetLen[j] = int32(d.u())
		}
	}
	return a
}

func encodeAttrs(e *encoder, attrs []table.Attribute) {
	e.u(uint64(len(attrs)))
	for _, at := range attrs {
		e.s(at.Name)
		e.i(int(at.Type))
		e.i(int(at.Char))
	}
}

func decodeAttrs(d *decoder) []table.Attribute {
	n := d.n()
	if n == 0 || d.err != nil {
		return nil
	}
	out := make([]table.Attribute, n)
	for i := range out {
		out[i] = table.Attribute{Name: d.s(), Type: table.AttrType(d.i()), Char: table.AttrChar(d.i())}
	}
	return out
}

func encodeTable(e *encoder, t *table.Table) {
	if t == nil {
		e.b(false)
		return
	}
	e.b(true)
	e.s(t.Name)
	encodeAttrs(e, t.Schema.Attrs)
	e.u(uint64(len(t.Tuples)))
	for i := range t.Tuples {
		for _, v := range t.Tuples[i].Values {
			e.s(v)
		}
	}
}

func decodeTable(d *decoder) *table.Table {
	if !d.b1() {
		return nil
	}
	name := d.s()
	attrs := decodeAttrs(d)
	names := make([]string, len(attrs))
	for i, at := range attrs {
		names[i] = at.Name
	}
	sch := table.NewSchema(names...)
	copy(sch.Attrs, attrs)
	t := table.New(name, sch)
	nrows := d.n()
	for i := 0; i < nrows && d.err == nil; i++ {
		// Append retains the variadic slice, so each row needs its own.
		vals := make([]string, len(attrs))
		for j := range vals {
			vals[j] = d.s()
		}
		if d.err != nil {
			return t
		}
		t.Append(vals...)
	}
	return t
}

// encodeForest writes the forest as NumFeatures plus each tree in preorder
// (leaf iff Feature < 0; internal nodes always carry both children).
func encodeForest(e *encoder, f *forest.Forest) {
	if f == nil {
		e.b(false)
		return
	}
	e.b(true)
	e.i(f.NumFeatures)
	e.u(uint64(len(f.Trees)))
	for _, t := range f.Trees {
		encodeNode(e, t.Root)
	}
}

func encodeNode(e *encoder, n *forest.Node) {
	e.i(n.Feature)
	e.f(n.Threshold)
	e.b(n.Match)
	e.i(n.NPos)
	e.i(n.NNeg)
	if n.Feature >= 0 {
		encodeNode(e, n.Left)
		encodeNode(e, n.Right)
	}
}

func decodeForest(d *decoder) *forest.Forest {
	if !d.b1() {
		return nil
	}
	f := &forest.Forest{NumFeatures: d.i()}
	nt := d.n()
	for i := 0; i < nt && d.err == nil; i++ {
		f.Trees = append(f.Trees, &forest.Tree{Root: decodeNode(d, 0)})
	}
	return f
}

// decodeNode reads the subtree rooted at depth, bounding the recursion at
// forest.MaxDepthLimit.
func decodeNode(d *decoder, depth int) *forest.Node {
	if d.err == nil && depth > forest.MaxDepthLimit {
		d.err = fmt.Errorf("model: artifact tree deeper than %d", forest.MaxDepthLimit)
	}
	if d.err != nil {
		return &forest.Node{Feature: -1}
	}
	n := &forest.Node{
		Feature:   d.i(),
		Threshold: d.f(),
		Match:     d.b1(),
		NPos:      d.i(),
		NNeg:      d.i(),
	}
	if n.Feature >= 0 {
		n.Left = decodeNode(d, depth+1)
		n.Right = decodeNode(d, depth+1)
	}
	return n
}
