// Command perfbench is Falcon's wall-clock benchmark. It drives the
// system through the exported calls a user or service makes — MatchContext,
// SaveArtifact, LoadArtifact, ApplyContext, NewBundle, service.New and
// Publish, and POST /match/one and PUT /artifacts/current over loopback —
// and times each from outside. One workload runs per process:
//
//	go run . --workload train-products --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 the run also records spans and a CPU
// profile and reports the per-layer ones. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one workload run.
type run struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	tr       *tracer
	outDir   string

	attempted, failed int
	gateFailures      int
	gateErrs          []string
	endToEnd          map[string]metric
	layers            map[string]metric
	shape             map[string]any

	profile   *cpuProfile
	setupReps int
}

func (r *run) e2e(name string, v float64, unit string)   { r.endToEnd[name] = metric{v, unit} }
func (r *run) layer(name string, v float64, unit string) { r.layers[name] = metric{v, unit} }

// maxGateErrs bounds how many violations a run describes; all are counted.
const maxGateErrs = 20

// gate records a correctness violation unless ok.
func (r *run) gate(ok bool, format string, args ...any) {
	if ok {
		return
	}
	r.gateFailures++
	if len(r.gateErrs) < maxGateErrs {
		r.gateErrs = append(r.gateErrs, fmt.Sprintf(format, args...))
	}
}

// The set-up repeats at least minSetupReps times and until it has taken
// minSetupTime, at most maxSetupReps times; setup_s reports the median.
const (
	minSetupReps = 3
	maxSetupReps = 15
	minSetupTime = 2 * time.Second
)

// setup runs fn repeatedly and reports the median as setup_s; the workload
// keeps the state of the last repetition.
func (r *run) setup(fn func(rep int) error) error {
	var ts []float64
	start := time.Now()
	for rep := 0; rep < maxSetupReps && (rep < minSetupReps || time.Since(start) < minSetupTime); rep++ {
		releaseMemory()
		t0 := time.Now()
		if err := fn(rep); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	r.setupReps = len(ts)
	r.shape["setup_reps_s"] = ts
	r.e2e("setup_s", median(ts), "s")
	return nil
}

// sample is one measured operation.
type sample struct {
	wall, cpu float64
}

// measure runs op until budget has elapsed, and at least minOps times,
// timing each call's wall and process CPU time. check, when not nil, runs
// untimed after each call to verify what it produced.
func measure(budget time.Duration, minOps int, op, check func(i int) error) ([]sample, error) {
	var out []sample
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < budget; i++ {
		c0, t0 := cpuSeconds(), time.Now()
		if err := op(i); err != nil {
			return out, err
		}
		out = append(out, sample{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0})
		if check != nil {
			if err := check(i); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// phaseOp is one measured operation of a phase: run is timed, check is
// not. parent is the span both run under.
type phaseOp struct {
	run, check func(i, parent int) error
}

func walls(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.wall
	}
	return out
}

func cpus(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.cpu
	}
	return out
}

// minF1 is the quality floor every workload's matches must reach against
// the planted ground truth.
const minF1 = 0.8

// phaseBudget is the measuring time of the untraced phase: all of an
// untraced run, half of a traced one.
func (r *run) phaseBudget() time.Duration {
	if r.traced {
		return r.budget / 2
	}
	return r.budget
}

// untracedPhase measures op (called with parent span 0) for budget, at
// least minOps times, with span recording paused, and reports wall_s and
// cpu_s as medians per operation and peak_rss_mib as the phase's RSS peak.
func (r *run) untracedPhase(budget time.Duration, minOps int, op phaseOp) ([]sample, error) {
	on := r.tr.on
	r.tr.on = false
	defer func() { r.tr.on = on }()
	releaseMemory()
	if err := resetRSSPeak(); err != nil {
		return nil, fmt.Errorf("resetting the RSS peak: %w", err)
	}
	ss, err := measure(budget, minOps,
		func(i int) error { return op.run(i, 0) },
		func(i int) error { return op.check(i, 0) })
	if err != nil {
		return nil, err
	}
	peak, err := rssPeakMiB()
	if err != nil {
		return nil, fmt.Errorf("reading the RSS peak: %w", err)
	}
	r.e2e("peak_rss_mib", peak, "MiB")
	r.e2e("wall_s", median(walls(ss)), "s")
	r.e2e("cpu_s", median(cpus(ss)), "s")
	r.shape["ops_measured"] = len(ss)
	r.shape["op_walls_s"] = walls(ss)
	return ss, nil
}

// tracedPhase measures op for the other half of a traced run's budget,
// each timed call inside an "op" span and the whole phase under the CPU
// profiler. It reports the per-operation CPU layers and trace.overhead,
// the traced median over untracedMedian minus one.
func (r *run) tracedPhase(untracedMedian float64, minOps int, op phaseOp) ([]sample, error) {
	releaseMemory()
	rt0 := readRuntimeStats()
	var ss []sample
	err := r.profiled(r.workload, func() error {
		var err error
		ss, err = measure(r.budget/2, minOps,
			func(i int) error { return r.tr.do("op", 0, func(id int) error { return op.run(i, id) }) },
			func(i int) error { return r.tr.do("check", 0, func(id int) error { return op.check(i, id) }) })
		return err
	})
	if err != nil {
		return nil, err
	}
	r.profileLayers(readRuntimeStats().sub(rt0), ss)
	r.layer("trace.overhead", median(walls(ss))/untracedMedian-1, "ratio")
	cov := 0.0
	spans := r.tr.snapshot()
	for _, s := range spans {
		if s.Name == "op" {
			cov += childCoverage(spans, s.ID)
		}
	}
	r.layer("trace.coverage", cov/float64(len(ss)), "ratio")
	return ss, nil
}

// profiled runs fn under the CPU profiler, writes the profile to outDir
// and keeps its samples as go tool pprof reads them.
func (r *run) profiled(name string, fn func() error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return fmt.Errorf("starting CPU profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(r.outDir, name+".cpu.pprof")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	p, err := readCPUProfile(path)
	if err != nil {
		return fmt.Errorf("reducing CPU profile: %w", err)
	}
	r.profile = p
	return nil
}

// layerPackages maps profiled packages to the cpu.* layer metrics (see
// selfByLayer).
var layerPackages = map[string]string{
	"falcon/internal/tokenize":  "tokenize",
	"falcon/internal/feature":   "feature",
	"falcon/internal/simfn":     "simfn",
	"falcon/internal/bitset":    "bitset",
	"falcon/internal/filters":   "filters",
	"falcon/internal/index":     "index",
	"falcon/internal/block":     "block",
	"falcon/internal/mapreduce": "mapreduce",
	"falcon/internal/forest":    "forest",
	"falcon/internal/sample":    "sample",
	"falcon/internal/learn":     "learn",
	"falcon/internal/rules":     "rulesel",
	"falcon/internal/rulesel":   "rulesel",
	"falcon/internal/model":     "model",
	"falcon/internal/serve":     "serve",
	"falcon/internal/service":   "service",
	"net/http":                  "http_json",
	"encoding/json":             "http_json",
	"net":                       "http_json",
	"internal/poll":             "http_json",
	"syscall":                   "http_json",
	"bufio":                     "http_json",
	"net/textproto":             "http_json",
}

// profileLayers reports the profile's self-CPU seconds per layer and the
// Go runtime counters of the traced phase, each per measured operation.
func (r *run) profileLayers(rt runtimeStats, ss []sample) {
	n := float64(len(ss))
	byLayer := map[string]float64{}
	for _, name := range layerPackages {
		byLayer[name] = 0
	}
	byLayer["runtime"], byLayer["other"] = 0, 0
	for name, sec := range selfByLayer(r.profile, layerPackages) {
		byLayer[name] += sec
	}
	for name, sec := range byLayer {
		r.layer("cpu."+name+"_s", sec/n, "s")
	}
	r.layer("cpu.gc_s", rt.gcCPU/n, "s")
	r.layer("runtime.alloc_mib", rt.allocBytes/(1<<20)/n, "MiB")
	r.layer("runtime.gc_cycles", rt.gcCycles/n, "count")
	r.layer("proc.cpu_util", sum(cpus(ss))/(sum(walls(ss))*float64(runtime.GOMAXPROCS(0))), "ratio")
}

// endToEndMetrics and perLayerMetrics are the metrics the result line
// carries, as BENCHMARK.json lists them; every workload reports each. The
// record line before it holds everything a workload measured.
var (
	endToEndMetrics = []string{"setup_s", "wall_s", "cpu_s", "peak_rss_mib", "f1", "crowd_usd", "artifact_mib"}
	perLayerMetrics = []string{"cpu.tokenize_s", "cpu.simfn_s", "cpu.bitset_s", "cpu.index_s", "cpu.runtime_s",
		"cpu.gc_s", "runtime.alloc_mib", "runtime.gc_cycles",
		"model.save_s", "model.load_s", "model.artifact_bytes", "trace.overhead", "trace.coverage"}
)

// pick selects names from ms, failing if one is missing.
func pick(ms map[string]metric, names []string) (map[string]metric, error) {
	out := make(map[string]metric, len(names))
	for _, n := range names {
		m, ok := ms[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		out[n] = m
	}
	return out, nil
}

var workloads = map[string]func(*run) error{
	"train-products":  trainProducts,
	"apply-citations": applyCitations,
	"serve-products":  serveProducts,
}

func main() {
	name := flag.String("workload", "", "workload: train-products, apply-citations or serve-products")
	seed := flag.Int64("seed", 1, "workload seed (generated data and request order)")
	seconds := flag.Int("seconds", 20, "measured seconds")
	traceOn := flag.Int("trace", 0, "1 records spans and a CPU profile and reports per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's spans and profile")
	flag.Parse()
	// One P: on a small VM the host intermittently stops running one of two
	// busy vCPUs, which spreads two-core wall times 10-20% between runs
	// (README.md, "One core").
	runtime.GOMAXPROCS(1)
	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	runID := fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *traceOn)
	r := &run{
		workload: *name,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		traced:   *traceOn == 1,
		tr:       newTracer(*traceOn == 1, runID),
		outDir:   *outDir,
		endToEnd: map[string]metric{},
		layers:   map[string]metric{},
		shape:    map[string]any{},
	}
	r.shape["workload"] = *name
	r.shape["seed"] = *seed
	r.shape["nproc"] = runtime.NumCPU()
	r.shape["gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.shape["go_version"] = runtime.Version()
	r.shape["commit"] = commit()

	err := fn(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if r.traced {
		if err := r.tr.write(filepath.Join(r.outDir, runID+".spans.json")); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
	}

	res := result{Correct: r.gateFailures == 0, Attempted: r.attempted, Failed: r.failed}
	if r.traced {
		res.Metrics, err = pick(r.layers, perLayerMetrics)
	} else {
		res.Metrics, err = pick(r.endToEnd, endToEndMetrics)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	record := map[string]any{"shape": r.shape, "measured": r.endToEnd, "layers": r.layers,
		"gate_failures": r.gateFailures, "gate_errors": r.gateErrs}
	rec, err := json.Marshal(record)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	printSummary(r)
	fmt.Printf("record %s\n", rec)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		for _, e := range r.gateErrs {
			fmt.Fprintf(os.Stderr, "perfbench: correctness gate failed: %s\n", e)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d correctness gate failures\n", r.gateFailures)
		os.Exit(1)
	}
}

// printSummary writes the metrics as an aligned table.
func printSummary(r *run) {
	ms := r.endToEnd
	if r.traced {
		ms = r.layers
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%s seed=%d trace=%v attempted=%d failed=%d\n", r.workload, r.seed, r.traced, r.attempted, r.failed)
	for _, n := range names {
		fmt.Printf("  %-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// commit is the VCS revision the binary was built from, when known.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
