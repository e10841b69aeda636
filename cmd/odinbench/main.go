// Command odinbench is the repository benchmark: it runs one workload for a
// fixed host-time budget, checks every op's output against pinned
// checksums, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a traced run) as a JSON object on the last line of
// standard output. See README.md in this directory for the workloads, the
// metric table and how to run it.
//
// Every layer is measured from outside: the benchmark times calls into the
// public functions of internal/experiments, core, serve, policy, decache and
// dnn, and reads host time only through clock.NewReal.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"odin/internal/clock"
)

//go:embed pins.json
var embeddedPins []byte

// options is the parsed command line.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workers  int    // serve.Config.Workers and the par pool (GOMAXPROCS)
	tiny     bool   // self-test sizes
	traceOut string // Chrome-trace output of a traced run
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run's shared state: options, the host clock, the
// pins, the report being built and a log for human-readable lines.
type bench struct {
	opts options
	clk  *clock.Real
	pins map[string]string
	out  io.Writer
	res  result
}

func (b *bench) now() float64 { return b.clk.Now() }

func (b *bench) set(name string, v float64, unit string) {
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.out, format+"\n", args...)
}

// judge counts one attempted op and fails it at most once, on the first
// of its check results that names a problem ("" is a passed check).
func (b *bench) judge(problems ...string) {
	b.res.Attempted++
	for _, p := range problems {
		if p != "" {
			b.res.Failed++
			b.res.Correct = false
			b.logf("FAIL: %s", p)
			return
		}
	}
}

// pinProblem compares a checksum with the pin for key. A missing pin is a
// problem only when required.
func (b *bench) pinProblem(key string, got uint64, required bool) string {
	want, ok := b.pins[key]
	switch {
	case !ok && required:
		return key + ": no pinned checksum"
	case ok && want != hex(got):
		return fmt.Sprintf("%s: checksum %s, pinned %s", key, hex(got), want)
	}
	return ""
}

func hex(v uint64) string { return fmt.Sprintf("%#016x", v) }

func fnv64(p []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(p) // hash.Hash.Write never fails
	return h.Sum64()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one benchmark invocation and returns the exit code: 0 when
// every op was correct, 1 when an op failed its check, 2 on a usage or
// set-up error (no result line is printed then).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("odinbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: "+workloadNames())
	fs.Uint64Var(&o.seed, "seed", 1, "input seed (replay traces are drawn from it)")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured host seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced mode and reports per-layer metrics")
	fs.IntVar(&o.workers, "workers", runtime.NumCPU(), "serve workers and par pool size")
	fs.BoolVar(&o.tiny, "tiny", false, "self-test sizes (seconds instead of minutes)")
	fs.StringVar(&o.traceOut, "trace-out", "", "Chrome-trace file of a traced run (default .bench_build/traces/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.workers < 1 || o.seconds <= 0 {
		fmt.Fprintf(stderr, "odinbench: need -workload %s, -trace 0|1, -workers >= 1, -seconds > 0\n", workloadNames())
		return 2
	}
	var pins map[string]string
	if err := json.Unmarshal(embeddedPins, &pins); err != nil {
		fmt.Fprintln(stderr, "odinbench: pins:", err)
		return 2
	}
	runtime.GOMAXPROCS(o.workers)

	b := &bench{
		opts: o, clk: clock.NewReal(), pins: pins, out: stdout,
		res: result{Correct: true, Metrics: map[string]metric{}},
	}
	b.logf("# odinbench workload=%s seed=%d seconds=%g trace=%d tiny=%t num_cpu=%d GOMAXPROCS=%d go=%s",
		o.workload, o.seed, o.seconds, trace, o.tiny, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	var err error
	if o.trace {
		err = w.traced(b)
	} else {
		err = w.measure(b)
	}
	if err != nil {
		fmt.Fprintln(stderr, "odinbench:", err)
		return 2
	}
	line, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintln(stderr, "odinbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !b.res.Correct {
		return 1
	}
	return 0
}

// workload is one benchmark input set: an untraced measuring run and a
// traced run.
type workload struct {
	measure func(b *bench) error
	traced  func(b *bench) error
}

var workloads = map[string]workload{
	"sim-fig8":            {measure: fig8Measure, traced: fig8Traced},
	"replay-fleet8-drift": replayWorkload(fleet8Drift),
	"replay-fleet1024-rr": replayWorkload(fleet1024RR),
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the nearest-rank q-quantile of xs, sorting it in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(q*float64(len(xs))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// tail returns the highest of p99/p90/p50 that leaves at least ten samples
// beyond it, with the percentile used (0 when there are no samples).
func tail(xs []float64) (value, pct float64) {
	for _, p := range []float64{0.99, 0.9, 0.5} {
		if float64(len(xs))*(1-p) >= 10 {
			return quantile(xs, p), 100 * p
		}
	}
	if len(xs) == 0 {
		return 0, 0
	}
	return quantile(xs, 0.5), 50
}

// more reports whether another op fits the run: the first op always runs,
// and a later one starts only if at least half of it is expected (at the
// last op's wall time) to fall within the budget. The op count is the
// budget over the op time, rounded, so a long op never doubles a run.
func (b *bench) more(start float64, ops []sample) bool {
	return len(ops) == 0 || b.now()-start+ops[len(ops)-1].wall/2 <= b.opts.seconds
}

// mallocs reads the process-wide allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// rusage reads the process's CPU time (user + system, seconds) and peak
// resident set (MiB).
func rusage() (cpu, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// sample is one op's host cost.
type sample struct{ wall, cpu, allocs float64 }

// measureOp runs fn as one op and returns its wall time, process CPU time
// and allocation count.
func (b *bench) measureOp(fn func()) sample {
	m := mallocs()
	c, _ := rusage()
	s := b.now()
	fn()
	wall := b.now() - s
	c2, _ := rusage()
	return sample{wall: wall, cpu: c2 - c, allocs: float64(mallocs() - m)}
}

// endToEnd fills the end-to-end metrics shared by every workload from
// the set-up samples and the ops, each of which did items units of work
// (requests or simulated runs, named by unit).
//
// Op cost is gated twice, each as the median over the run's ops. cpu_s is
// process CPU time: time the hypervisor steals from the vCPUs of a shared
// virtual machine lands in wall time, in bursts, but not in the process's
// CPU time. CPU time cannot see a program that waits, though (an
// unbalanced pool, a router blocked on in-flight batches), so wall_s
// gates wall time too. The fastest op's wall time was tried as a
// steal-resistant estimator and spread more between runs than the median.
func (b *bench) endToEnd(setup []float64, ops []sample, items float64, unit string) {
	var wall, cpu, allocs []float64
	for _, o := range ops {
		wall = append(wall, o.wall)
		cpu = append(cpu, o.cpu)
		allocs = append(allocs, o.allocs/items)
	}
	c, w := median(cpu), median(wall)
	_, peak := rusage()
	b.set("setup_s", median(setup), "s")
	b.set("wall_s", w, "s")
	b.set("cpu_s", c, "s")
	b.set("throughput_per_cpu_s", items/c, "1/s")
	b.set("allocs_per_item", median(allocs), "count")
	b.set("peak_rss_mb", peak, "MB")
	ok := 1.0
	if b.res.Attempted > 0 {
		ok = float64(b.res.Attempted-b.res.Failed) / float64(b.res.Attempted)
	}
	b.set("ok_share", ok, "share")
	b.logf("ops=%d setups=%d wall_s=%.6g %s_per_s=%.6g (wall) cpu_s=%.6g %s_per_cpu_s=%.6g allocs_per_%s=%.6g",
		len(ops), len(setup), w, unit, items/w, c, unit, items/c, unit, median(allocs))
}
