package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"

	"falcon/internal/table"
)

func TestQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{4, 1, 3, 2}, 0, 1},
		{[]float64{4, 1, 3, 2}, 1, 4},
		{[]float64{4, 1, 3, 2}, 0.25, 1.75},
		{[]float64{7}, 0.99, 7},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9, 10},
		{[]float64{0, 100}, 0.99, 99},
	}
	for _, c := range cases {
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	if median(xs) != 2 || !slices.Equal(xs, []float64{3, 1, 2}) {
		t.Errorf("median(%v) = %v or modified its input", xs, median(xs))
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample is not NaN")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "apply", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "bind", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "block", Start: 2, End: 5}, // overlaps bind
		{ID: 4, Parent: 1, Name: "bind", Start: 7, End: 8},
		{ID: 5, Parent: 3, Name: "probe", Start: 4, End: 6}, // runs past its parent
		{ID: 6, Name: "apply", Start: 20, End: 21},
	}
	self := selfTimes(spans)
	want := map[string]float64{"apply": 5 + 1, "bind": 3, "block": 2, "probe": 2}
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-12 {
			t.Errorf("self[%s] = %v, want %v", name, self[name], w)
		}
	}
	if got := childCoverage(spans, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("childCoverage(apply) = %v, want 0.5", got)
	}
	if got := childCoverage(spans, 6); got != 0 {
		t.Errorf("childCoverage of a childless span = %v, want 0", got)
	}
}

func TestTracerRecordsNothingWhenOff(t *testing.T) {
	tr := newTracer(false, "run")
	if id := tr.start("x", 0); id != 0 {
		t.Fatalf("disabled tracer handed out span %d", id)
	}
	if err := tr.do("y", 0, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.snapshot()); n != 0 {
		t.Fatalf("disabled tracer kept %d spans", n)
	}
	on := newTracer(true, "run")
	outer := on.start("outer", 0)
	_ = on.do("inner", outer, func(int) error { return nil })
	on.end(outer)
	got := on.snapshot()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[0].RunID != "run" {
		t.Fatalf("spans = %+v", got)
	}
}

var fixtureStacks = [][]string{
	{"slices.partitionOrdered[go.shape.int32]", "slices.pdqsortOrdered[go.shape.int32]", "falcon/internal/index.(*PrefixIndex).Probe", "falcon/internal/serve.(*Bundle).candidates"},
	{"falcon/internal/simfn.OverlapIDs", "falcon/internal/feature.(*Vectorizer).evalWithCols", "falcon/internal/core.genFVsMR.func1", "falcon/internal/mapreduce.runTasks.func1"},
	{"runtime.mallocgc", "falcon/internal/sample.Pairs.func3", "falcon/internal/mapreduce.runTasks.func1"},
	{"aeshashbody", "runtime.mapaccess2_faststr", "falcon/internal/rulesel.greedyOrder", "falcon/internal/rulesel.SelectOptSeq", "falcon/internal/core.(*runState).stageApplyBlocking"},
	{"internal/runtime/syscall.Syscall6", "syscall.write", "internal/poll.(*FD).Write", "net/http.(*conn).serve"},
	{"strings.genSplit", "main.main"},
	{"falcon/internal/mapreduce.keyString[go.shape.int32]", "falcon/internal/block.(*Input).runClausePass.func2", "falcon/internal/mapreduce.runTasks.func1"},
}

var fixtureMS = []int{30, 50, 20, 10, 40, 5, 15}

// fixtureTraces renders fixtureStacks as `go tool pprof -traces -unit=ms`
// prints them: a header, then one block per sample, with a label line in
// one block and an inlined leaf in another.
func fixtureTraces() string {
	var b strings.Builder
	b.WriteString("File: perfbench\nType: cpu\nDuration: 1s, Total samples = 170ms (17.00%)\n")
	for i, stack := range fixtureStacks {
		b.WriteString(tracesSeparator + "-------------------\n")
		if i == 1 {
			fmt.Fprintf(&b, "%10s:  %s\n", "phase", "train")
		}
		for j, fn := range stack {
			v := ""
			if j == 0 {
				v = fmt.Sprintf("%dms", fixtureMS[i])
			}
			if i == 0 && j == 0 {
				fn += " (inline)"
			}
			fmt.Fprintf(&b, "%10s   %s\n", v, fn)
		}
	}
	b.WriteString(tracesSeparator + "-------------------\n")
	return b.String()
}

func profileSeconds(p *cpuProfile) float64 {
	t := 0.0
	for _, s := range p.samples {
		t += s.seconds
	}
	return t
}

func TestProfileReduction(t *testing.T) {
	p, err := parseTraces(fixtureTraces())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) != len(fixtureStacks) {
		t.Fatalf("%d samples, want %d", len(p.samples), len(fixtureStacks))
	}
	for i, s := range p.samples {
		if !slices.Equal(s.stack, fixtureStacks[i]) {
			t.Errorf("sample %d stack = %v, want %v", i, s.stack, fixtureStacks[i])
		}
	}
	if total := profileSeconds(p); math.Abs(total-0.170) > 1e-9 {
		t.Errorf("total = %v s, want 0.170", total)
	}

	layers := selfByLayer(p, layerPackages)
	wantLayers := map[string]float64{"index": 0.030, "simfn": 0.050, "runtime": 0.030, "http_json": 0.040, "other": 0.005, "mapreduce": 0.015}
	if len(layers) != len(wantLayers) {
		t.Errorf("layers = %v, want %v", layers, wantLayers)
	}
	for name, w := range wantLayers {
		if math.Abs(layers[name]-w) > 1e-9 {
			t.Errorf("layer %s = %v s, want %v", name, layers[name], w)
		}
	}

	ops := byOperator(p, trainOps)
	wantOps := map[string]float64{"gen_fvs": 0.050, "sample_pairs": 0.020, "select_opt_seq": 0.010, "apply_blocking_rules": 0.015, "other": 0.075}
	if len(ops) != len(wantOps) {
		t.Errorf("operators = %v, want %v", ops, wantOps)
	}
	for name, w := range wantOps {
		if math.Abs(ops[name]-w) > 1e-9 {
			t.Errorf("operator %s = %v s, want %v", name, ops[name], w)
		}
	}
}

func TestParseTracesRejectsGarbage(t *testing.T) {
	for _, text := range []string{
		"not a profile",
		tracesSeparator + "\n             caller.without.value\n",
		tracesSeparator + fmt.Sprintf("\n%10s   %s\n", "10parsec", "main.main"),
	} {
		if _, err := parseTraces(text); err == nil {
			t.Errorf("parseTraces(%q) succeeded", text)
		}
	}
	for v, want := range map[string]float64{"10ms": 0.010, "1.5s": 1.5, "250us": 0.00025, "0": 0} {
		if got, err := parseDuration(v); err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", v, got, err, want)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// TestReadCPUProfile reads a real runtime/pprof profile back through the
// toolchain's go tool pprof.
func TestReadCPUProfile(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go command on PATH")
	}
	path := filepath.Join(t.TempDir(), "spin.cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := readCPUProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	spun := 0.0
	for _, s := range p.samples {
		if slices.ContainsFunc(s.stack, func(fn string) bool { return strings.HasSuffix(fn, ".spinForProfile") }) {
			spun += s.seconds
		}
	}
	if spun <= 0 || spun > profileSeconds(p)+1e-9 {
		t.Errorf("spinForProfile has %v s of %v s profiled", spun, profileSeconds(p))
	}
}

func TestPackageOf(t *testing.T) {
	cases := map[string]string{
		"falcon/internal/simfn.OverlapIDs": "falcon/internal/simfn",
		"net/http.(*conn).serve":           "net/http",
		"runtime.mallocgc":                 "runtime",
		"falcon/internal/mapreduce.Execute[go.shape.[]int,go.shape.int32]": "falcon/internal/mapreduce",
		"slices.partitionOrdered[go.shape.int32]":                          "slices",
		"aeshashbody": "aeshashbody",
	}
	for fn, want := range cases {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestGatesTripOnWrongAnswers(t *testing.T) {
	want := []table.Pair{{A: 1, B: 2}, {A: 3, B: 4}, {A: 0, B: 9}}
	if ok, diff := samePairs([]table.Pair{{A: 0, B: 9}, {A: 3, B: 4}, {A: 1, B: 2}}, want); !ok {
		t.Errorf("reordered pairs reported different: %s", diff)
	}
	if ok, _ := samePairs([]table.Pair{{A: 1, B: 2}, {A: 3, B: 5}, {A: 0, B: 9}}, want); ok {
		t.Error("a wrong pair passed the gate")
	}
	if ok, _ := samePairs(want[:2], want); ok {
		t.Error("a missing pair passed the gate")
	}
	if pairsDigest(want) == pairsDigest([]table.Pair{{A: 1, B: 2}, {A: 3, B: 4}, {A: 0, B: 8}}) {
		t.Error("digests of different pair sets collide")
	}
	if !sameRows([]int{5, 2, 2}, []int{2, 2, 5}) || sameRows([]int{5, 2}, []int{2, 2}) || sameRows([]int{1}, nil) {
		t.Error("sameRows compares B-row lists wrongly")
	}

	r := &run{}
	r.gate(true, "fine")
	served, batch := []int{7}, []int{8}
	r.gate(sameRows(served, batch), "A row %d: served %v, batch %v", 0, served, batch)
	if r.gateFailures != 1 || len(r.gateErrs) != 1 || r.gateErrs[0] != "A row 0: served [7], batch [8]" {
		t.Errorf("gate failures = %d, errors = %q", r.gateFailures, r.gateErrs)
	}
	for i := 0; i < 2*maxGateErrs; i++ {
		r.gate(false, "row %d", i)
	}
	if r.gateFailures != 1+2*maxGateErrs || len(r.gateErrs) != maxGateErrs {
		t.Errorf("after %d more failures: %d counted, %d described", 2*maxGateErrs, r.gateFailures, len(r.gateErrs))
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the result line's metrics in
// step with BENCHMARK.json at the repository root.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEndMetrics) {
		t.Errorf("BENCHMARK.json end_to_end = %v, code reports %v", got, endToEndMetrics)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer = %v, code reports %v", got, perLayerMetrics)
	}
}
