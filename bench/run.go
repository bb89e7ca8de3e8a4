package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// opDeadline is how long one operation may take before it counts as
// failed. No timer is armed per operation (that would charge the generator
// a timer and a context per call); the phase's context ends this long
// after its last window, and a completion slower than this is counted as
// a failure after the fact.
const opDeadline = 2 * time.Second

// A traced run first measures an undecorated reference (the rate the
// decorators are compared against) for at least tracedRef, and then traces
// for tracedRun. Neither is a flag: result files with different lengths
// could not be compared.
const (
	tracedRef = 2 * time.Second
	tracedRun = 5 * time.Second
)

// Every segment of a run sets the workload up several times (the last
// set-up is the one it loads) and the run reports the median set-up time:
// at least setupRepeats times a segment, and then until the segment's share
// of setupBudget has passed or maxSetupRepeats is reached. A set-up of a
// fraction of a millisecond wanders by a factor of two over tenths of a
// second on this host, so what steadies its median is the time the repeats
// cover more than their number.
const (
	setupRepeats    = 5
	maxSetupRepeats = 1000
	setupBudget     = 2 * time.Second
)

// segmentMax is the longest stretch of load one set-up carries; a longer
// run is cut into equal segments, each on a fresh set-up. The branch's
// store keeps every deposit and stalls past about 1.2 million calls
// (README.md, "Findings"), which the fastest bank row reaches in ten
// seconds; the set-ups timed for setup_s are spread over the run instead of
// all falling into its first two seconds; and whatever a process owes to
// luck — which thread a goroutine woke on, how the heap was laid out — is
// drawn again for each segment.
const segmentMax = 4 * time.Second

// metrics maps a metric name to its value.
type metrics map[string]float64

// runConfig is what a workload's set-up needs to know.
type runConfig struct {
	seed    int64
	tr      *tracer // nil on an untraced run: no decorator is installed
	odpnode string  // path of the built odpnode binary (rpc_xproc)
	// warm is the load run and discarded before every measured phase.
	warm time.Duration
	// setups is how long an untraced run repeats its set-up for: setupBudget
	// in the benchmark, 0 (set up once) in the tests.
	setups time.Duration
}

// instance is one set-up of a workload, ready to be driven.
type instance interface {
	// goroutines is the number of samplers run needs.
	goroutines() int
	// sampleEvery is how many completions share one stored latency sample.
	sampleEvery() int
	// run drives the workload's closed loop until the phase's deadline and
	// returns once every goroutine it started has ended.
	run(p *phase)
	// verify is the end-of-run oracle: it returns the checks it made and
	// how many failed.
	verify() (checked, failed int64)
	// layers adds the workload's per-layer metrics after a traced phase.
	layers(p *phase, m metrics)
	// pids lists the other processes of the workload.
	pids() []int
	close()
}

// workload is one named set of inputs.
type workload struct {
	name string
	// threads is how many Ps the generator has use for (see useThreads).
	threads int
	setup   func(cfg runConfig) (instance, error)
}

// phase is one timed stretch of load.
type phase struct {
	start    time.Time
	dur      time.Duration
	ctx      context.Context
	samplers []*sampler
	traced   bool
	// peak goroutine count seen while the phase ran
	goroutinesPeak int
	elapsed        time.Duration
}

func (p *phase) now() int64 { return int64(time.Since(p.start)) }

// over reports whether t (ns since start) is past the last window.
func (p *phase) over(t int64) bool { return t >= int64(p.dur) }

// newPhase allocates a phase of dur and its sample buffers.
func newPhase(inst instance, dur time.Duration, traced bool, capHint int) *phase {
	windows := int(dur / time.Duration(window))
	if windows < 1 {
		windows = 1
	}
	p := &phase{dur: dur, traced: traced}
	for i := 0; i < inst.goroutines(); i++ {
		p.samplers = append(p.samplers, newSampler(windows, inst.sampleEvery(), capHint))
	}
	return p
}

// drive runs inst's load for the length of the phase.
func (p *phase) drive(inst instance) {
	peak := runtime.NumGoroutine()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				peak = max(peak, runtime.NumGoroutine())
			}
		}
	}()
	p.start = time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), p.start.Add(p.dur+opDeadline))
	p.ctx = ctx
	inst.run(p)
	p.elapsed = time.Since(p.start)
	cancel()
	close(stop)
	wg.Wait()
	p.goroutinesPeak = peak
}

// runPhase drives inst for dur and returns the phase with its samples.
func runPhase(inst instance, dur time.Duration, traced bool, capHint int) *phase {
	p := newPhase(inst, dur, traced, capHint)
	p.drive(inst)
	return p
}

// totals sums attempted, failed and bytes over the phase's samplers, and
// counts completions slower than opDeadline as failures.
func (p *phase) totals() (attempted, failed, bytes, completed int64) {
	for _, s := range p.samplers {
		attempted += s.attempted
		failed += s.failed
		if s.why != "" {
			fmt.Fprintln(os.Stderr, "bench: failed:", s.why)
			s.why = "" // said once, however often the totals are taken
		}
		bytes += s.bytes
		for _, c := range s.counts {
			completed += c
		}
		for _, l := range s.lat {
			if l > int64(opDeadline) {
				failed++
			}
		}
	}
	return
}

// procCPU returns the user+system CPU seconds a process has used, from
// /proc/<pid>/stat. The kernel reports clock ticks; USER_HZ is 100 on
// every Linux this runs on.
func procCPU(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name may contain spaces; fields are counted after its
	// closing parenthesis. utime and stime are fields 14 and 15.
	rest := string(data)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// procPeakRSS returns a process's peak resident set (VmHWM) in MiB.
func procPeakRSS(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// cpuSeconds adds up the CPU time of the generator and of the workload's
// other processes.
func cpuSeconds(inst instance) float64 {
	cpu := procCPU(os.Getpid())
	for _, pid := range inst.pids() {
		cpu += procCPU(pid)
	}
	return cpu
}

// peakRSS adds up the peak resident sets of the generator and of the
// workload's other processes.
func peakRSS(inst instance) float64 {
	rss := procPeakRSS(os.Getpid())
	for _, pid := range inst.pids() {
		rss += procPeakRSS(pid)
	}
	return rss
}

// runResult is what one run of one workload reports.
type runResult struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   metrics
}

// setUp sets the workload up — once if budget is 0, else as often as the
// constants above say — keeps the last instance and returns the time each
// set-up took, in seconds.
func setUp(w workload, cfg runConfig, budget time.Duration) (instance, []float64, error) {
	// A set-up is one goroutine's chain of calls, whatever the load that
	// follows: on one P it measures the work of setting up, on several the
	// host's cross-thread wake-ups (64 binds and 128 calls of rpc_pipelined
	// took 7 ms or 30 ms on two Ps depending on the minute).
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var inst instance
	var times []float64
	begun := time.Now()
	for {
		t0 := time.Now()
		var err error
		inst, err = w.setup(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
		n := len(times)
		if budget == 0 || n >= maxSetupRepeats || n >= setupRepeats && time.Since(begun) >= budget {
			break
		}
		inst.close()
	}
	return inst, times, nil
}

// useThreads gives the generator as many Ps as the workload has use for,
// and never more than it had (main caps that at the host's cores): a P
// with nothing to run spins and steals, and on a host of two shared cores
// that is what a one-caller workload then measures. It returns the undo.
func useThreads(w workload) (undo func()) {
	n := min(w.threads, runtime.GOMAXPROCS(0))
	prev := runtime.GOMAXPROCS(max(n, 1))
	return func() { runtime.GOMAXPROCS(prev) }
}

// measurement is what the untraced load of one run adds up to, over its
// segments.
type measurement struct {
	setups []float64 // seconds each set-up took
	rates  []float64 // completion rate of each window
	lat    latencySummary

	attempted, failed, completed int64
	cpu                          float64 // CPU seconds of the measured phases
	mallocs, allocBytes          uint64
	peakRSS                      float64
}

// measure sets w up and loads it for dur with nothing decorated. A run
// longer than segmentMax is cut into equal segments, each on a set-up of
// its own; setups is how long the run's set-ups are repeated for in all.
func measure(w workload, cfg runConfig, dur, setups time.Duration) (*measurement, error) {
	defer useThreads(w)()
	cfg.tr = nil
	segs := max(1, int((dur+segmentMax-1)/segmentMax))
	// A segment is a whole number of windows: what completes outside a
	// window is not counted as completed, but its allocations would be.
	windows := int(dur / time.Duration(window))
	m := &measurement{}
	for i := 0; i < segs; i++ {
		segDur := dur // shorter than one window: a test
		if windows > 0 {
			n := windows / segs
			if i < windows%segs {
				n++
			}
			segDur = time.Duration(n) * time.Duration(window)
		}
		if err := m.segment(w, cfg, segDur, setups/time.Duration(segs)); err != nil {
			return nil, err
		}
	}
	if m.completed == 0 {
		return nil, fmt.Errorf("%s: no operation completed", w.name)
	}
	return m, nil
}

// segment is one set-up (repeated for setups), its warm-up, dur of load
// and the end-of-run oracle.
func (m *measurement) segment(w workload, cfg runConfig, dur, setups time.Duration) error {
	inst, times, err := setUp(w, cfg, setups)
	if err != nil {
		return err
	}
	defer inst.close()
	m.setups = append(m.setups, times...)

	wp := runPhase(inst, cfg.warm, false, 1<<12)
	wa, wf, _, warm := wp.totals()
	// Size the sample buffers from the warm-up rate, generously: a buffer
	// that has to grow because the host sped up after the warm-up shows up
	// in alloc_bytes_per_op (by up to a third on rpc_xproc's 132 B).
	capHint := int(float64(warm)/cfg.warm.Seconds()*dur.Seconds()*4)/(inst.goroutines()*inst.sampleEvery()) + 1024

	p := newPhase(inst, dur, false, capHint)
	runtime.GC()
	var m0, m1 runtime.MemStats
	cpu0 := cpuSeconds(inst)
	runtime.ReadMemStats(&m0)
	p.drive(inst)
	runtime.ReadMemStats(&m1)
	cpu1 := cpuSeconds(inst)

	attempted, failed, _, completed := p.totals()
	checked, bad := inst.verify()
	m.attempted += attempted + wa + checked
	m.failed += failed + wf + bad
	m.completed += completed
	m.cpu += cpu1 - cpu0
	m.mallocs += m1.Mallocs - m0.Mallocs
	m.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	m.peakRSS = max(m.peakRSS, peakRSS(inst))
	m.rates = append(m.rates, windowRates(p.samplers)...)
	m.lat.add(summarize(p.samplers))
	return nil
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(w workload, cfg runConfig, dur time.Duration) (*runResult, error) {
	ms, err := measure(w, cfg, dur, cfg.setups)
	if err != nil {
		return nil, err
	}
	res := &runResult{
		Attempted: ms.attempted, Failed: ms.failed, Correct: ms.failed == 0,
		Metrics: metrics{},
	}
	m := res.Metrics
	m["setup_s"] = median(ms.setups)
	ops := float64(ms.completed)
	m["allocs_per_op"] = float64(ms.mallocs) / ops
	m["alloc_bytes_per_op"] = float64(ms.allocBytes) / ops
	ms.ungated(m)
	return res, nil
}

// ungated adds the figures of an untraced measurement that are times. On
// this host no time repeats well enough to carry a bound (README.md,
// "Spread"), so they are listed with the per-layer metrics: reported by
// every run, gated by none.
func (ms *measurement) ungated(m metrics) {
	m["loadgen.ops_per_s"] = median(ms.rates)
	m["loadgen.lat_p50_us"] = median(ms.lat.windowP50) / 1e3
	m["loadgen.lat_p90_us"] = median(ms.lat.windowP90) / 1e3
	m["loadgen.cpu_us_per_op"] = ms.cpu * 1e6 / float64(ms.completed)
	m["loadgen.peak_rss_mb"] = ms.peakRSS
	m["failed_share"] = float64(ms.failed) / float64(ms.attempted)
	health(m, ms.rates, ms.lat)
}

// health adds what the samples say about the measurement itself; these are
// reported and never gated.
func health(m metrics, rates []float64, ls latencySummary) {
	m["loadgen.samples"] = float64(ls.samples)
	m["loadgen.min_window_samples"] = float64(ls.minSamples)
	m["loadgen.tail_window_s"] = float64(ls.tailWindows) * float64(window) / 1e9
	m["loadgen.window_rate_iqr_share"] = spreadShare(rates)
	m["loadgen.lat_p99_us"] = median(ls.windowP99) / 1e3
	m["loadgen.lat_p999_us"] = median(ls.p999) / 1e3
	m["loadgen.lat_max_us"] = float64(ls.max) / 1e3
	m["loadgen.lat_mean_us"] = ls.mean / 1e3
}

// runTraced measures the per-layer metrics of one workload. It spends
// refDur of the run on an undecorated reference (the rate the decorators
// are compared against) and the rest on the decorated system.
func runTraced(w workload, cfg runConfig, refDur, dur time.Duration, outDir string) (*runResult, error) {
	ref, err := measure(w, cfg, refDur, 0)
	if err != nil {
		return nil, err
	}
	refRate := median(ref.rates)

	defer useThreads(w)()
	tr := newTracer()
	cfg.tr = tr
	inst, _, err := setUp(w, cfg, 0)
	if err != nil {
		return nil, err
	}
	defer inst.close()

	wp := runPhase(inst, cfg.warm, false, 1<<12)
	tr.reset()
	tr.on.Store(true)
	tr.capture.Store(true)
	var g0, g1 runtime.MemStats
	runtime.ReadMemStats(&g0)
	p := runPhase(inst, dur, true, 1<<16)
	runtime.ReadMemStats(&g1)
	tr.on.Store(false)
	tr.capture.Store(false)

	attempted, failed, _, completed := p.totals()
	checked, bad := inst.verify()
	wa, wf, _, _ := wp.totals()
	attempted += checked + wa + ref.attempted
	failed += bad + wf + ref.failed

	res := &runResult{
		Attempted: attempted, Failed: failed, Correct: failed == 0 && completed > 0,
		Metrics: metrics{},
	}
	if completed == 0 {
		return res, fmt.Errorf("%s: no operation completed in the traced run", w.name)
	}
	m := res.Metrics
	ls := summarize(p.samplers)
	rates := windowRates(p.samplers)
	tracedRate := median(rates)
	ops := float64(completed)
	// Latency and CPU time are those of the undecorated reference; the
	// health figures that follow are the traced phase's own.
	ref.ungated(m)
	m["failed_share"] = float64(failed) / float64(attempted)
	m["loadgen.peak_rss_mb"] = peakRSS(inst)
	health(m, rates, ls)
	m["loadgen.traced_lat_mean_us"] = ls.mean / 1e3
	m["loadgen.traced_ops_per_s"] = tracedRate
	if refRate > 0 {
		m["loadgen.trace_overhead_share"] = 1 - tracedRate/refRate
	}
	m["runtime.gc_cycles_per_mop"] = float64(g1.NumGC-g0.NumGC) / ops * 1e6
	m["runtime.gc_pause_share"] = float64(g1.PauseTotalNs-g0.PauseTotalNs) / float64(p.elapsed.Nanoseconds())
	m["runtime.goroutines_peak"] = float64(p.goroutinesPeak)
	// The replays allocate; a collection of the run's heap still under way
	// would tax them with mark assists.
	runtime.GC()
	inst.layers(p, m)

	var captured [][]span
	tr.doneMu.Lock()
	for _, o := range tr.done {
		spans := o.spans
		if len(spans) == 0 {
			spans = interrogationSpans(o)
		}
		if len(spans) > 0 && len(captured) < maxCaptured {
			captured = append(captured, spans)
		}
	}
	tr.doneMu.Unlock()
	if outDir != "" {
		if err := writeTrace(outDir, w.name, cfg.seed, captured); err != nil {
			return res, err
		}
	}
	m["loadgen.trace_ops"] = float64(len(captured))
	return res, nil
}
