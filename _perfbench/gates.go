package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"

	"falcon"
	"falcon/internal/datagen"
	"falcon/internal/metrics"
	"falcon/internal/table"
)

// rowKeyLabeler answers match questions from a generated dataset's planted
// ground truth by mapping each row's values back to its row number.
func rowKeyLabeler(d *datagen.Dataset) falcon.Labeler {
	truth := d.Oracle()
	aRows, bRows := rowKeys(d.A), rowKeys(d.B)
	return falcon.LabelerFunc(func(ar, br []string) bool {
		return truth(table.Pair{A: aRows[rowKey(ar)], B: bRows[rowKey(br)]})
	})
}

func rowKey(vals []string) string { return strings.Join(vals, "\x1f") }

func rowKeys(t *table.Table) map[string]int {
	m := make(map[string]int, t.Len())
	for i, tu := range t.Tuples {
		m[rowKey(tu.Values)] = i
	}
	return m
}

// sortedPairs returns ps sorted by (A, B).
func sortedPairs(ps []table.Pair) []table.Pair {
	out := slices.Clone(ps)
	slices.SortFunc(out, func(x, y table.Pair) int {
		if x.A != y.A {
			return x.A - y.A
		}
		return x.B - y.B
	})
	return out
}

// pairsDigest is a SHA-256 over the sorted pair set.
func pairsDigest(ps []table.Pair) string {
	h := sha256.New()
	var buf [16]byte
	for _, p := range sortedPairs(ps) {
		binary.LittleEndian.PutUint64(buf[:8], uint64(p.A))
		binary.LittleEndian.PutUint64(buf[8:], uint64(p.B))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// reportPairs converts a report's matches to table pairs.
func reportPairs(rep *falcon.Report) []table.Pair {
	out := make([]table.Pair, len(rep.Matches))
	for i, m := range rep.Matches {
		out[i] = table.Pair{A: m.ARow, B: m.BRow}
	}
	return out
}

// f1 scores predicted pairs against the planted truth.
func f1(pred []table.Pair, truth map[table.Pair]bool) float64 {
	return metrics.Score(pred, truth).F1
}

// samePairs reports whether got and want hold the same pairs, and if not
// describes the first difference.
func samePairs(got, want []table.Pair) (bool, string) {
	g, w := sortedPairs(got), sortedPairs(want)
	if slices.Equal(g, w) {
		return true, ""
	}
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return false, fmt.Sprintf("%d vs %d pairs; first difference at #%d: %v vs %v", len(g), len(w), i, g[i], w[i])
		}
	}
	return false, fmt.Sprintf("%d vs %d pairs", len(g), len(w))
}
