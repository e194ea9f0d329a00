package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// resetRSSPeak resets the kernel's resident-set high-water mark (VmHWM) to
// the current RSS, so rssPeakMiB covers only what follows. Call
// releaseMemory first so heap left over from set-up is returned to the OS.
func resetRSSPeak() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssPeakMiB reads the resident-set high-water mark since resetRSSPeak from
// the "VmHWM:  <n> kB" line of /proc/self/status.
func rssPeakMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kib, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			return float64(kib) / (1 << 10), err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/self/status has no VmHWM")
}

// releaseMemory collects garbage and returns free heap to the OS.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// runtimeStats are cumulative Go runtime counters read from
// runtime/metrics; the difference of two snapshots covers a phase.
type runtimeStats struct {
	allocBytes float64
	gcCycles   float64
	gcCPU      float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func readRuntimeStats() runtimeStats {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeStats{allocBytes: val(s[0].Value), gcCycles: val(s[1].Value), gcCPU: val(s[2].Value)}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{allocBytes: a.allocBytes - b.allocBytes, gcCycles: a.gcCycles - b.gcCycles, gcCPU: a.gcCPU - b.gcCPU}
}
