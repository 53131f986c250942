package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"svtiming/internal/expt"
	"svtiming/internal/obs"
)

// cpuNow returns the process's user+system CPU time. The kernel does not
// charge hypervisor steal to the process, so CPU-time throughput holds
// still on a host whose wall clock is shared with noisy neighbours.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stamp is a (wall, CPU) instant; since measures the interval after it.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{wall: expt.Now(), cpu: cpuNow()} }

// since returns the wall and CPU seconds elapsed since s.
func (s stamp) since() (wallS, cpuS float64) {
	return expt.Now().Sub(s.wall).Seconds(), (cpuNow() - s.cpu).Seconds()
}

// hostCPU is one reading of the machine-wide "cpu" line of /proc/stat.
type hostCPU struct {
	total, steal uint64
	ok           bool
}

func readHostCPU() hostCPU {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	f := strings.Fields(string(line))
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}
	}
	var h hostCPU
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return hostCPU{}
		}
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	h.ok = true
	return h
}

// stealPct is the share of machine CPU time stolen by the hypervisor
// between two readings, or -1 when /proc/stat is unavailable.
func stealPct(a, b hostCPU) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return -1
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// probeMs is the median CPU time, in milliseconds, of a fixed compute
// kernel that shares no code with the program. Printed beside the
// metrics, it shows when the host itself ran slower (a busy neighbour on
// a shared core, a lower clock), which CPU time cannot hide and steal
// does not show.
func probeMs() float64 {
	var ms []float64
	for i := 0; i < 5; i++ {
		c := cpuNow()
		probeSink += probeKernel()
		ms = append(ms, float64(cpuNow()-c)/1e6)
	}
	return median(ms)
}

var probeSink float64

func probeKernel() float64 {
	x, acc := uint64(88172645463325252), 0.0
	for i := 0; i < 2000000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += math.Sqrt(float64(x >> 11))
	}
	return acc
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// opLog records per-operation wall latency, CPU time and gates completed
// for one kind of operation, and, given a registry, the registry counters
// the operations moved. The checks between operations are left out of all
// of them.
type opLog struct {
	wallMs   []float64
	cpuS     []float64
	gates    []int
	reg      *obs.Registry
	counters map[string]int64
}

// time runs fn as one operation, recording its wall latency and CPU time.
func (l *opLog) time(fn func() error) error {
	var before []int64
	if l.reg != nil {
		for _, c := range registryCounters {
			before = append(before, l.reg.CounterValue(c.counter))
		}
	}
	s := now()
	err := fn()
	w, c := s.since()
	l.wallMs = append(l.wallMs, 1000*w)
	l.cpuS = append(l.cpuS, c)
	l.gates = append(l.gates, 0)
	if l.reg != nil {
		if l.counters == nil {
			l.counters = map[string]int64{}
		}
		for i, c := range registryCounters {
			l.counters[c.metric] += l.reg.CounterValue(c.counter) - before[i]
		}
	}
	return err
}

// done credits the last operation with the gates whose results it
// returned.
func (l *opLog) done(gates int) { l.gates[len(l.gates)-1] = gates }

func (l *opLog) n() int { return len(l.wallMs) }

func (l *opLog) totalCPUS() float64 { return sum(l.cpuS) }

// perWallSecond returns gates completed per wall second of operation.
func (l *opLog) perWallSecond() float64 {
	return float64(sumInts(l.gates)) / (sum(l.wallMs) / 1000)
}

// cpuThroughput returns gates and operations completed per CPU second,
// costing each kind of operation at its median CPU time and weighting it
// by how many operations of that kind a round holds. The median keeps a
// burst of host noise or a garbage collection that lands on a few
// operations from moving the result, and the fixed weights keep every
// kind in it.
func cpuThroughput(rounds int, kinds ...*opLog) (gatesPerCPUS, opsPerCPUS float64) {
	cpu, ops, gates := 0.0, 0.0, 0.0
	for _, k := range kinds {
		if k.n() == 0 {
			continue
		}
		perRound := float64(k.n()) / float64(rounds)
		cpu += perRound * median(k.cpuS)
		ops += perRound
		gates += float64(sumInts(k.gates)) / float64(rounds)
	}
	return gates / cpu, ops / cpu
}

// merge concatenates operation logs.
func merge(logs ...*opLog) *opLog {
	out := &opLog{counters: map[string]int64{}}
	for _, l := range logs {
		out.wallMs = append(out.wallMs, l.wallMs...)
		out.cpuS = append(out.cpuS, l.cpuS...)
		out.gates = append(out.gates, l.gates...)
		for k, v := range l.counters {
			out.counters[k] += v
		}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sumInts(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// setupStats repeats a workload's set-up and keeps the last instance:
// one set-up is a single sample of a wall time that host noise moves, so
// the reported figures are medians over the repetitions.
type setupStats struct {
	wallS, cpuS []float64
}

func repeatSetup[T any](reps int, build func() (T, func(), error)) (T, setupStats, error) {
	var st setupStats
	var last T
	var release func()
	for i := 0; i < reps; i++ {
		if release != nil {
			release()
		}
		s := now()
		v, rel, err := build()
		if err != nil {
			var zero T
			return zero, st, err
		}
		w, c := s.since()
		st.wallS = append(st.wallS, w)
		st.cpuS = append(st.cpuS, c)
		last, release = v, rel
	}
	return last, st, nil
}

// liveHeapMiB forces collections and returns the live heap in MiB. The
// second collection frees what sync.Pool victim caches held through the
// first.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// gcAlloc reads cumulative GC CPU seconds and allocated bytes.
func gcAlloc() (gcCPUS float64, allocBytes uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Uint64()
}

// profiledPackages are the program's layers whose CPU-profile self time
// the traced run reports; everything else under the module is "other".
var profiledPackages = []string{
	"fourier", "litho", "resist", "process", "opc", "place", "context",
	"netlist", "sta", "incr", "core", "service", "liberty",
}

// cpuProfile is a running CPU profile of the traced phase.
type cpuProfile struct {
	file string
	f    *os.File
}

func startProfile(file string) (*cpuProfile, error) {
	f, err := os.Create(file)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // nothing was written; the start error is the one to report
		return nil, err
	}
	return &cpuProfile{file: file, f: f}, nil
}

// stop ends the profile and returns self CPU milliseconds per layer,
// grouped by source directory from `go tool pprof -top -files`.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-files", "-nodefraction=0", "-nodecount=1000000", p.file).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parsePprofFiles(out)
}

// parsePprofFiles sums the flat column of `pprof -top -files` output by
// layer. File paths are module-relative because the benchmark is built
// with -trimpath: svtiming/internal/<pkg>/... is a program layer, the
// runtime (and internal/runtime/...) is "runtime", the benchmark's own
// files are "bench", and the rest of the standard library is "stdlib".
func parsePprofFiles(out []byte) (map[string]float64, error) {
	ms := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "flat" && f[1] == "flat%" {
			inTable = true
			continue
		}
		if !inTable || len(f) < 6 {
			continue
		}
		v, err := pprofDurationMs(f[0])
		if err != nil {
			return nil, err
		}
		ms[layerOf(strings.Join(f[5:], " "))] += v
	}
	if !inTable {
		return nil, fmt.Errorf("go tool pprof: no table in output")
	}
	return ms, sc.Err()
}

func layerOf(file string) string {
	// The program module's files carry its version in the first element
	// (svtiming@v0.0.0/internal/...).
	if first, rest, ok := strings.Cut(file, "/"); ok {
		if mod, _, versioned := strings.Cut(first, "@"); versioned {
			file = mod + "/" + rest
		}
	}
	switch {
	case strings.HasPrefix(file, "svtiming/internal/"):
		pkg := strings.SplitN(strings.TrimPrefix(file, "svtiming/internal/"), "/", 2)[0]
		for _, p := range profiledPackages {
			if p == pkg {
				return p
			}
		}
		return "other"
	case strings.HasPrefix(file, "svtiming/"):
		return "bench"
	case strings.HasPrefix(file, "runtime/"), strings.HasPrefix(file, "internal/runtime/"):
		return "runtime"
	case path.IsAbs(file):
		return "other"
	default:
		return "stdlib"
	}
}

// pprofDurationMs parses a pprof duration such as "1.25s", "370ms",
// "12us" or "0".
func pprofDurationMs(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		ms     float64
	}{{"ms", 1}, {"us", 1e-3}, {"µs", 1e-3}, {"ns", 1e-6}, {"s", 1e3}, {"min", 6e4}, {"h", 3.6e6}} {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			return v * u.ms, err
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("pprof duration %q: %w", s, err)
	}
	return v, nil
}
