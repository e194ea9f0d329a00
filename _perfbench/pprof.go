package main

import (
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// cpuProfile is the part of a runtime/pprof profile the benchmark reduces:
// each sample's stack (function names, leaf first, inlined frames
// expanded) and its CPU time.
type cpuProfile struct {
	samples []cpuSample
}

type cpuSample struct {
	stack   []string
	seconds float64
}

// readCPUProfile reduces the runtime/pprof profile at path to its samples
// with the toolchain's `go tool pprof -traces`.
func readCPUProfile(path string) (*cpuProfile, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ms", "-symbolize=none", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(string(out))
}

// tracesSeparator starts each sample's block in `go tool pprof -traces`
// output; the header before the first one describes the profile.
const tracesSeparator = "-----------+"

// parseTraces reads `go tool pprof -traces` output. Each block after a
// separator holds optional "key:  value" label lines, then one frame per
// line, leaf first, printed as "%10s   %s": the sample's CPU time in the
// first frame's value column, blank in the callers'.
func parseTraces(text string) (*cpuProfile, error) {
	p := &cpuProfile{}
	cur := -1 // index of the block's sample, once its value line is read
	inBlocks := false
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, tracesSeparator):
			inBlocks, cur = true, -1
			continue
		case !inBlocks || len(line) < 14 || line[10:13] != "   ":
			continue // header, label or blank line
		}
		fn := strings.TrimSuffix(line[13:], " (inline)")
		if v := strings.TrimSpace(line[:10]); v != "" {
			sec, err := parseDuration(v)
			if err != nil {
				return nil, err
			}
			p.samples = append(p.samples, cpuSample{seconds: sec})
			cur = len(p.samples) - 1
		} else if cur < 0 {
			return nil, fmt.Errorf("pprof traces: frame %q before a sample value", fn)
		}
		p.samples[cur].stack = append(p.samples[cur].stack, fn)
	}
	if !inBlocks {
		return nil, fmt.Errorf("pprof traces: no samples section")
	}
	return p, nil
}

// parseDuration reads a pprof time label such as "10ms" or "1.5s".
func parseDuration(v string) (float64, error) {
	i := strings.IndexFunc(v, func(r rune) bool { return (r < '0' || r > '9') && r != '.' })
	if i < 0 {
		i = len(v)
	}
	x, err := strconv.ParseFloat(v[:i], 64)
	scale, ok := map[string]float64{"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1}[v[i:]]
	if v[i:] == "" && x == 0 {
		scale, ok = 0, true
	}
	if err != nil || !ok {
		return 0, fmt.Errorf("pprof traces: bad sample value %q", v)
	}
	return x * scale, nil
}

// packageOf returns the import path of a profiled function name such as
// "falcon/internal/simfn.OverlapIDs" or "net/http.(*conn).serve".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// selfByLayer sums each sample's CPU time into one layer. A leaf frame in
// the Go runtime (allocation, GC, scheduling, map hashing) counts as
// "runtime"; any other sample goes to the innermost frame whose package
// layers names, so standard-library helpers such as sorting or string
// splitting count toward the package that called them. Samples with no
// such frame go to "other".
func selfByLayer(p *cpuProfile, layers map[string]string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range p.samples {
		out[layerOf(s.stack, layers)] += s.seconds
	}
	return out
}

func layerOf(stack []string, layers map[string]string) string {
	if len(stack) == 0 {
		return "other"
	}
	if leaf := stack[0]; packageOf(leaf) == "runtime" || !strings.Contains(leaf, ".") {
		return "runtime"
	}
	for _, fn := range stack {
		if name, ok := layers[packageOf(fn)]; ok {
			return name
		}
	}
	return "other"
}

// opRule attributes a sample to a plan operator when a frame of its stack
// starts with prefix.
type opRule struct {
	prefix string
	op     string
}

// byOperator sums each sample's CPU time into the operator of the first
// rule that matches any frame of its stack; samples no rule matches go to
// "other".
func byOperator(p *cpuProfile, rules []opRule) map[string]float64 {
	out := map[string]float64{}
	for _, s := range p.samples {
		out[operatorOf(s.stack, rules)] += s.seconds
	}
	return out
}

func operatorOf(stack []string, rules []opRule) string {
	for _, r := range rules {
		for _, fn := range stack {
			if strings.HasPrefix(fn, r.prefix) {
				return r.op
			}
		}
	}
	return "other"
}
