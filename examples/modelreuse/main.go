// Modelreuse: train once with the crowd, re-apply forever for free.
//
// An EM cloud service rarely matches a table pair once: catalogs refresh
// weekly. This example runs the hands-off pipeline on one snapshot of the
// Songs workload (paying the crowd), exports the learned model (blocking
// rules + matcher), then applies it to a *fresh* snapshot with zero
// additional crowdsourcing.
//
// Run: go run ./examples/modelreuse
package main

import (
	"fmt"
	"log"
	"strings"

	"falcon"
	"falcon/internal/datagen"
	"falcon/internal/metrics"
	"falcon/internal/table"
)

func main() {
	train := datagen.Songs(800, 5)
	fmt.Printf("Training snapshot: |A|=|B|=%d, %d true matches\n", train.A.Len(), train.Matches())

	report, err := falcon.Match(falcon.WrapTable(train.A), falcon.WrapTable(train.B), labelerFor(train),
		falcon.WithSeed(2),
		falcon.WithSampleSize(6000),
		falcon.WithBlocking(true),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Trained: F1=%.1f%% on the snapshot, crowd cost $%.2f (%d questions)\n",
		f1(train, report.Matches)*100, report.CrowdCost, report.Questions)

	blob := report.Model()
	fmt.Printf("Exported model: %d-byte model-only artifact (rules + random forest)\n", len(blob))

	// A week later: refreshed catalogs, same schema — no crowd needed.
	fresh := datagen.Songs(800, 99)
	matches, err := falcon.ApplyModel(blob, falcon.WrapTable(fresh.A), falcon.WrapTable(fresh.B))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Re-applied to a fresh snapshot: %d matches, F1=%.1f%%, $0.00 crowd cost\n",
		len(matches), f1(fresh, matches)*100)
}

func labelerFor(d *datagen.Dataset) falcon.Labeler {
	truth := d.Oracle()
	join := func(vs []string) string { return strings.Join(vs, "\x1f") }
	aRows, bRows := map[string]int{}, map[string]int{}
	for i, t := range d.A.Tuples {
		aRows[join(t.Values)] = i
	}
	for i, t := range d.B.Tuples {
		bRows[join(t.Values)] = i
	}
	return falcon.LabelerFunc(func(ar, br []string) bool {
		return truth(table.Pair{A: aRows[join(ar)], B: bRows[join(br)]})
	})
}

func f1(d *datagen.Dataset, matches []falcon.Pair) float64 {
	pred := make([]table.Pair, len(matches))
	for i, m := range matches {
		pred[i] = table.Pair{A: m.ARow, B: m.BRow}
	}
	return metrics.Score(pred, d.Truth).F1
}
