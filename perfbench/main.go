// Command perfbench is the end-to-end benchmark of expandersvc. It starts
// serve.New on generated inputs inside its own process, drives
// serve.Server.Handler() over loopback HTTP with keep-alive, checks every
// output against properties it recomputes itself, and prints one JSON
// object as the last line of standard output:
//
//	perfbench --workload cold|hot|churn --seed N --seconds S --trace 0|1
//
// With --trace 0 the object carries the end-to-end metrics of the
// untraced run; with --trace 1 it carries the per-layer metrics of a
// traced run (see README.md). run.sh builds the program and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one named value of the final JSON line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner is a workload that has been set up and can be measured.
type runner interface {
	// measure runs whole rounds of the workload's operations until d has
	// passed, recording every operation in rec and, when tr is non-nil,
	// a span around every call.
	measure(d time.Duration, rec *recorder, tr *tracer)
	// latencyKinds names the operation kinds whose median latencies make
	// up service_ms.
	latencyKinds() []string
	// workKinds names the operation kinds alloc_kb_per_op is taken over
	// (and the CPU time on the comment line).
	workKinds() []string
	// service is the server the workload drives.
	service() *service
	// notes are report lines beyond the per-kind counts.
	notes() []string
	close()
}

// workload sets up one runner from the run's inputs.
type workload struct {
	setups int // set-ups per run; setup_s is their median
	setup  func(in *inputs, rec *recorder) (runner, error)
}

var workloads = map[string]workload{
	"cold":  {setups: 9, setup: setupCold},
	"hot":   {setups: 3, setup: setupHot},
	"churn": {setups: 5, setup: setupChurn},
}

func main() {
	name := flag.String("workload", "", "workload: cold, hot or churn")
	seed := flag.Int64("seed", 1, "seed of the generated requests and traces")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload cold|hot|churn, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	out, err := run(*name, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(name string, w workload, seed int64, d time.Duration, traced bool) (*output, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	in, err := makeInputs(name, seed, dir)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	var (
		r         runner
		setups    []float64 // CPU seconds of each set-up
		setupWall []float64 // wall seconds of each set-up
	)
	for i := 0; i < w.setups; i++ {
		if r != nil {
			r.close()
		}
		// Each set-up starts on a collected heap, so it is not charged
		// for collecting the inputs' or the previous set-up's garbage.
		runtime.GC()
		cpu0, t0 := cpuNow(), time.Now()
		r, err = w.setup(in, rec)
		if err != nil {
			rec.report(os.Stderr, setups, setupWall)
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, (cpuNow()-cpu0)/1000)
		setupWall = append(setupWall, time.Since(t0).Seconds())
	}
	defer r.close()
	runtime.GC()

	out := &output{Metrics: map[string]metric{}}
	if !traced {
		ops0, exch0 := rec.attempted(r.workKinds()), rec.allocKB(r.workKinds())
		cpu0, alloc0, steal0 := cpuNow(), allocatedKB(), hostSteal()
		r.measure(d, rec, nil)
		cpu, alloc, steal := cpuNow()-cpu0, allocatedKB()-alloc0, hostSteal().since(steal0)
		ops := float64(rec.attempted(r.workKinds()) - ops0)
		// A cold query or a write is charged what the process allocated
		// during its own exchange, so the checks and the observing query
		// between writes stay out. Hits are too short and too concurrent
		// for that; they are charged the measured phase, in which the
		// clients only compare bytes.
		if cpuTimed[r.workKinds()[0]] {
			alloc = rec.allocKB(r.workKinds()) - exch0
		}
		fmt.Printf("# measured phase: %.0f operations of kinds %v; %.4f ms CPU per operation; wall latency %.4f ms; host steal %.1f %% of CPU time\n",
			ops, r.workKinds(), cpu/ops, rec.latency(r.latencyKinds(), true), steal)
		out.Metrics["service_ms"] = metric{rec.latency(r.latencyKinds(), false), "ms"}
		out.Metrics["alloc_kb_per_op"] = metric{alloc / ops, "KB"}
		out.Metrics["setup_s"] = metric{median(setups), "s"}
		out.Metrics["rss_mb"] = metric{peakRSSMB(), "MB"}
	} else {
		// The untraced half gives the baseline of the tracing overhead;
		// only the traced half and the layer probe feed the metrics.
		base := newRecorder()
		r.measure(d/2, base, nil)
		tr := newTracer()
		before, err := r.service().statz()
		if err != nil {
			return nil, err
		}
		r.measure(d/2, rec, tr)
		after, err := r.service().statz()
		if err != nil {
			return nil, err
		}
		lay, err := probeLayers(in, rec, tr)
		if err != nil {
			return nil, fmt.Errorf("layer probe: %w", err)
		}
		statzDeltas(lay, before, after)
		untraced, tracedMs := base.latency(r.latencyKinds(), false), rec.latency(r.latencyKinds(), false)
		lay["trace.overhead_pct"] = metric{100 * (tracedMs/untraced - 1), "%"}
		lay["wall.latency_ms"] = metric{base.latency(r.latencyKinds(), true), "ms"}
		// Tail percentiles of the workload's own hits where there are
		// enough of them, of the probe's loopback hits otherwise.
		hits := rec.samples("hit.")
		if len(hits) < 10000 {
			hits = rec.samples("probe.hit")
		}
		lay["serve.hit_p99_ms"] = metric{percentile(hits, 0.99), "ms"}
		lay["serve.hit_p999_ms"] = metric{percentile(hits, 0.999), "ms"}
		out.Metrics = lay
		rec.merge(base)
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", name, seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		tr.printSelfTimes(os.Stdout)
		fmt.Printf("# spans written to %s\n", path)
	}
	rec.report(os.Stdout, setups, setupWall)
	for _, n := range r.notes() {
		fmt.Printf("# %s\n", n)
	}
	out.Correct, out.Attempted, out.Failed = rec.totals()
	return out, nil
}

// statzDeltas adds the serve metrics read from /statz before and after
// the traced phase.
func statzDeltas(out map[string]metric, before, after *statz) {
	var req, hits, coal int64
	for f, a := range after.Families {
		b := before.Families[f]
		req += a.Requests - b.Requests
		hits += a.CacheHits - b.CacheHits
		coal += a.Coalesced - b.Coalesced
	}
	ratio, wait := 0.0, 0.0
	if req > 0 {
		ratio = float64(hits) / float64(req)
	}
	if runs := after.Pool.Completed - before.Pool.Completed; runs > 0 {
		wait = (after.Pool.QueueWaitMs - before.Pool.QueueWaitMs) / float64(runs)
	}
	out["serve.cache_hit_ratio"] = metric{ratio, "ratio"}
	out["serve.coalesced"] = metric{float64(coal), "count"}
	out["serve.queue_wait_ms"] = metric{wait, "ms"}
}

// median returns the median of xs (NaN when empty).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile returns the p-quantile of xs by linear interpolation between
// closest ranks (NaN when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// mean returns the arithmetic mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean returns the geometric mean of xs.
func geomean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// allocatedKB returns the heap bytes the process has allocated so far, in
// KB.
func allocatedKB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / 1024
}

// peakRSSMB returns the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KB on Linux
}
